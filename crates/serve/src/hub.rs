//! Bounded broadcast of a running job's `bas-events/v2` stream.
//!
//! The worker that executes a sweep job generates the job's deterministic
//! first-trial event stream (the exact bytes `GET …/events` replays) and
//! pushes it through an [`EventHub`]. Followers — connections holding
//! `GET /v1/jobs/<id>/events?follow=1` open — read from the hub at their
//! own pace.
//!
//! The contract is **the worker never blocks on a consumer**: the hub
//! keeps a bounded window of the most recent complete NDJSON lines; a
//! follower that falls behind the window skips ahead and is told how many
//! lines it missed via a `{"type":"follow_drop",…}` marker line (the
//! `bas-events/v2` schema requires consumers to skip unknown `type`s, so
//! the marker is backward compatible). A follower that keeps up receives
//! a byte-exact prefix of the finished replay stream.
//!
//! Lines, not bytes, are the broadcast unit so a drop can never tear a
//! JSON record in half.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Condvar, Mutex};

/// Shared fan-out point between one producing worker and any number of
/// follower connections.
#[derive(Debug)]
pub struct EventHub {
    state: Mutex<HubState>,
    cond: Condvar,
}

#[derive(Debug)]
struct HubState {
    /// Window of complete lines (each includes its trailing `\n`).
    lines: VecDeque<Arc<[u8]>>,
    /// Absolute index (in the whole stream) of `lines[0]`.
    start: u64,
    window_bytes: usize,
    window_cap: usize,
    /// Byte-exact copy of the whole stream, destined for the result store.
    /// `None` once abandoned (disabled, over cap, or handed out).
    persist: Option<Vec<u8>>,
    persist_cap: usize,
    /// Bytes of a line still missing its `\n`.
    partial: Vec<u8>,
    /// Number of followers currently attached (or about to wait).
    followers: usize,
    /// Producer finished; no more lines will arrive.
    done: bool,
    /// Producer failed mid-stream — followers must not write a clean
    /// end-of-stream terminator.
    aborted: bool,
    /// The worker decided not to generate (no store, no followers at
    /// dequeue time); late followers fall back to on-demand replay.
    skipped: bool,
}

/// One read from the hub.
#[derive(Debug)]
pub struct Batch {
    /// Lines from the follower's cursor onward (empty only at stream end).
    pub lines: Vec<Arc<[u8]>>,
    /// Cursor to pass to the next call.
    pub next_cursor: u64,
    /// Lines that fell out of the window before the follower got to them.
    pub dropped: u64,
    /// The stream is complete **and** this batch reaches its end.
    pub drained: bool,
    /// The producer aborted; the stream is truncated.
    pub aborted: bool,
}

impl EventHub {
    /// A hub whose window holds at most `window_cap` bytes of recent lines.
    /// With `persist_cap > 0` the hub additionally accumulates the full
    /// byte stream (up to that cap) for the persistent store.
    pub fn new(window_cap: usize, persist_cap: usize) -> Arc<EventHub> {
        Arc::new(EventHub {
            state: Mutex::new(HubState {
                lines: VecDeque::new(),
                start: 0,
                window_bytes: 0,
                window_cap: window_cap.max(1),
                persist: if persist_cap > 0 { Some(Vec::new()) } else { None },
                persist_cap,
                partial: Vec::new(),
                followers: 0,
                done: false,
                aborted: false,
                skipped: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Producer side: append raw stream bytes. Complete lines enter the
    /// window immediately; a trailing fragment waits for its newline.
    /// Never blocks beyond the brief state lock.
    pub fn push(&self, buf: &[u8]) {
        let mut st = self.state.lock().expect("hub lock");
        if let Some(p) = st.persist.as_mut() {
            p.extend_from_slice(buf);
        }
        if st.persist.as_ref().is_some_and(|p| p.len() > st.persist_cap) {
            st.persist = None; // too big to store; keep streaming
        }
        st.partial.extend_from_slice(buf);
        let mut new_line = false;
        while let Some(nl) = st.partial.iter().position(|&b| b == b'\n') {
            let rest = st.partial.split_off(nl + 1);
            let line: Arc<[u8]> = std::mem::replace(&mut st.partial, rest).into();
            st.window_bytes += line.len();
            st.lines.push_back(line);
            new_line = true;
            // Evict oldest lines past the cap, always keeping the newest.
            while st.window_bytes > st.window_cap && st.lines.len() > 1 {
                let old = st.lines.pop_front().expect("len > 1");
                st.window_bytes -= old.len();
                st.start += 1;
            }
        }
        drop(st);
        if new_line {
            self.cond.notify_all();
        }
    }

    /// Producer side: the stream ended. With `ok` false the stream is
    /// marked truncated. Returns the accumulated full byte stream (for the
    /// store) when `ok` and it stayed under the persist cap.
    pub fn finish(&self, ok: bool) -> Option<Vec<u8>> {
        let mut st = self.state.lock().expect("hub lock");
        if !st.partial.is_empty() {
            // Defensive: the JSONL writer always ends lines with \n.
            let line: Arc<[u8]> = std::mem::take(&mut st.partial).into();
            st.window_bytes += line.len();
            st.lines.push_back(line);
        }
        st.done = true;
        st.aborted = !ok;
        let persist = if ok { st.persist.take() } else { None };
        drop(st);
        self.cond.notify_all();
        persist
    }

    /// Producer side: mark that no stream will be generated for this job.
    /// Returns `true` if any follower is already attached — in which case
    /// the caller must generate after all.
    pub fn skip_unless_followed(&self) -> bool {
        let mut st = self.state.lock().expect("hub lock");
        if st.followers > 0 {
            return true;
        }
        st.skipped = true;
        st.done = true;
        drop(st);
        self.cond.notify_all();
        false
    }

    /// Follower side: register interest. Returns `false` if the producer
    /// already decided to skip generation (fall back to on-demand replay).
    pub fn attach(&self) -> bool {
        let mut st = self.state.lock().expect("hub lock");
        if st.skipped {
            return false;
        }
        st.followers += 1;
        true
    }

    /// Follower side: done reading (always pair with a successful
    /// [`EventHub::attach`]).
    pub fn detach(&self) {
        let mut st = self.state.lock().expect("hub lock");
        st.followers = st.followers.saturating_sub(1);
    }

    /// Follower side: read everything available from `cursor` (an absolute
    /// line index), waiting for a line there or the end of the stream — which
    /// every job reaches through `finish` or `skip_unless_followed`.
    pub fn next_batch(&self, cursor: u64) -> Batch {
        let st = self.state.lock().expect("hub lock");
        let st = self
            .cond
            .wait_while(st, |st| cursor >= st.start + st.lines.len() as u64 && !st.done)
            .expect("hub lock");
        let from = cursor.max(st.start);
        Batch {
            lines: st.lines.iter().skip((from - st.start) as usize).cloned().collect(),
            next_cursor: st.start + st.lines.len() as u64,
            dropped: from - cursor,
            drained: st.done,
            aborted: st.aborted,
        }
    }
}

/// `io::Write` adapter handed to `Scenario::stream_events` so the engine's
/// observer output fans out through the hub.
#[derive(Debug)]
pub struct HubSink(pub Arc<EventHub>);

impl Write for HubSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(hub: &EventHub) -> (Vec<u8>, u64) {
        let mut cursor = 0;
        let mut out = Vec::new();
        let mut dropped = 0;
        loop {
            let b = hub.next_batch(cursor);
            dropped += b.dropped;
            for l in &b.lines {
                out.extend_from_slice(l);
            }
            cursor = b.next_cursor;
            if b.drained {
                return (out, dropped);
            }
        }
    }

    #[test]
    fn fast_follower_sees_the_exact_stream() {
        let hub = EventHub::new(1 << 20, 1 << 20);
        // Push in awkward fragments straddling line boundaries.
        hub.push(b"{\"a\":1}\n{\"b\"");
        hub.push(b":2}\n");
        let persist = {
            hub.push(b"{\"c\":3}\n");
            hub.finish(true)
        };
        let (bytes, dropped) = read_all(&hub);
        assert_eq!(bytes, b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
        assert_eq!(dropped, 0);
        assert_eq!(persist.unwrap(), b"{\"a\":1}\n{\"b\":2}\n{\"c\":3}\n");
    }

    #[test]
    fn slow_follower_skips_ahead_with_a_drop_count() {
        let hub = EventHub::new(16, 0); // window fits roughly two tiny lines
        for i in 0..100 {
            hub.push(format!("{{\"i\":{i}}}\n").as_bytes());
        }
        hub.finish(true);
        let (bytes, dropped) = read_all(&hub);
        assert!(dropped > 0, "window must have evicted lines");
        // Whatever survives is whole lines ending at the true stream end.
        assert!(bytes.ends_with(b"{\"i\":99}\n"));
        assert!(bytes.iter().filter(|&&b| b == b'\n').count() as u64 + dropped == 100);
    }

    #[test]
    fn persist_is_abandoned_past_its_cap() {
        let hub = EventHub::new(1 << 20, 8);
        hub.push(b"0123456789\n");
        assert!(hub.finish(true).is_none(), "over persist cap");
    }

    #[test]
    fn skip_unless_followed_respects_attached_followers() {
        let hub = EventHub::new(64, 0);
        assert!(hub.attach());
        assert!(hub.skip_unless_followed(), "a follower is waiting");
        hub.detach();

        let idle = EventHub::new(64, 0);
        assert!(!idle.skip_unless_followed());
        assert!(!idle.attach(), "late follower told to replay instead");
        let b = idle.next_batch(0);
        assert!(b.drained && b.lines.is_empty());
    }

    #[test]
    fn aborted_stream_is_flagged() {
        let hub = EventHub::new(1 << 20, 0);
        hub.push(b"{\"a\":1}\n");
        hub.finish(false);
        let b = hub.next_batch(0);
        assert!(b.aborted && b.drained);
    }
}
