//! Replica apply: the warm standby's stream, apply and promote machine.
//!
//! With `replicate_from` set the server boots read-only and spawns one
//! apply thread ([`replica_loop`]) that connects to the primary's
//! replication listener, installs the snapshot a full resync streams
//! ([`shard::install`], the install boot uses) and applies the record
//! stream through [`shard::replay`] — the replay a journal boot runs, dealt
//! by this server's shard count (the primary's may differ). What this
//! module adds on top is the cursor bookkeeping: records are buffered with
//! the newest cursor per primary stream, and the cursors only advance after
//! a flush whose replay applied everything, so a reconnect can never resume
//! past an unapplied record. Corruption drops the cursors (the next
//! connection is a full resync); a lost connection keeps them.
//!
//! Promotion ([`promote`]: the `promote` request, [`crate::server::Server::promote`],
//! or SIGHUP via the CLI) raises a flag the apply thread polls on its
//! read-timeout tick; the thread flushes what it has buffered, lifts
//! read-only dispatch and answers every waiter with the applied count.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::server::Shared;
use crate::shard::{self, APPLY_BATCH};
use crate::snapshot;
use qdelay_journal::Record;
use qdelay_repl::{Cursor, Msg, ReplClient, ReplError};

/// Handshake state between [`promote`] callers and the replica apply
/// thread: callers register a waiter and raise `requested`; the apply
/// thread (which polls on its read-timeout tick) flushes whatever it has
/// buffered, flips `read_only` off, and answers every waiter with the
/// applied-record count.
#[derive(Default)]
pub(crate) struct ReplicaCtl {
    requested: AtomicBool,
    waiters: Mutex<Vec<mpsc::Sender<Result<u64, String>>>>,
    /// Records applied so far (mirrors the `repl.applied` counter, but
    /// readable even when telemetry is compiled out).
    applied: AtomicU64,
}

/// Why a promotion did not happen. The variant picks the wire code; the
/// text is the message.
#[derive(Debug)]
pub(crate) enum PromoteError {
    /// The server never was a replica: a request error (`bad_request`).
    NotReplica,
    /// The apply thread did not answer in time, or the server is shutting
    /// down (`io`).
    Failed(String),
}

impl fmt::Display for PromoteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PromoteError::NotReplica => f.write_str("not a replica"),
            PromoteError::Failed(why) => f.write_str(why),
        }
    }
}

/// Promotes a replica to primary: drains the apply thread's buffered
/// records, lifts read-only dispatch, and returns the total record count
/// applied. Idempotent — promoting twice returns the same count.
pub(crate) fn promote(shared: &Shared) -> Result<u64, PromoteError> {
    let ctl = shared.replica.as_ref().ok_or(PromoteError::NotReplica)?;
    if !shared.read_only.load(Ordering::SeqCst) {
        return Ok(ctl.applied.load(Ordering::SeqCst));
    }
    let (tx, rx) = mpsc::channel();
    ctl.waiters.lock().expect("promote waiters lock").push(tx);
    ctl.requested.store(true, Ordering::SeqCst);
    match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(result) => result.map_err(PromoteError::Failed),
        Err(_) => Err(PromoteError::Failed(
            "promotion timed out (apply thread unresponsive)".into(),
        )),
    }
}

/// Why [`run_stream`] returned.
enum StreamExit {
    /// Shutdown or promotion — stop replicating entirely.
    Stop,
    /// Connection lost; retry keeping the cursors we have.
    Reconnect,
    /// The stream (or replay) went wrong; drop the cursors so the next
    /// attempt is a full resync.
    Resync,
}

/// Records received and not yet applied, plus the newest cursor seen per
/// primary stream.
#[derive(Default)]
struct Pending {
    records: Vec<Record>,
    newest: HashMap<(u64, u32), Cursor>,
}

impl Pending {
    fn push(&mut self, cursor: Cursor, record: Record) {
        self.records.push(record);
        self.newest.insert((cursor.epoch, cursor.shard), cursor);
    }

    /// Replays every buffered record into the shards, then advances
    /// `cursors` to the newest position per stream. All-or-nothing: a
    /// failed replay leaves the cursors untouched (the caller resyncs).
    fn flush(
        &mut self,
        shared: &Shared,
        cursors: &mut HashMap<(u64, u32), Cursor>,
        ctl: &ReplicaCtl,
    ) -> Result<(), String> {
        if self.records.is_empty() {
            return Ok(());
        }
        match shard::replay(&shared.shards, self.records.drain(..)) {
            Ok(applied) => {
                ctl.applied.fetch_add(applied, Ordering::SeqCst);
                qdelay_repl::APPLIED.add(applied);
                cursors.extend(self.newest.drain());
                Ok(())
            }
            Err(e) => {
                self.newest.clear();
                Err(e)
            }
        }
    }
}

/// Lifts read-only dispatch and answers every promotion waiter.
fn finish_promotion(shared: &Shared, ctl: &ReplicaCtl) {
    shared.read_only.store(false, Ordering::SeqCst);
    let applied = ctl.applied.load(Ordering::SeqCst);
    for tx in ctl.waiters.lock().expect("promote waiters lock").drain(..) {
        let _ = tx.send(Ok(applied));
    }
    eprintln!("qdelay-serve: replica promoted to primary ({applied} records applied)");
}

/// One replication connection's lifetime: welcome (maybe snapshot), the
/// catch-up stream, then tail mode. Ticks every read timeout to flush
/// buffered records and poll for shutdown/promotion.
fn run_stream(
    shared: &Shared,
    mut client: ReplClient,
    cursors: &mut HashMap<(u64, u32), Cursor>,
    ctl: &ReplicaCtl,
) -> StreamExit {
    let connected_at = Instant::now();
    let mut caught_up = false;
    let mut pending = Pending::default();
    loop {
        let msg = match client.next_msg() {
            Ok(msg) => Some(msg),
            Err(e) if e.is_timeout() => None,
            Err(ReplError::Corrupt(why)) => {
                eprintln!("qdelay-serve: replication stream corrupt ({why}); full resync");
                return StreamExit::Resync;
            }
            Err(_) => {
                // Io / Eof: apply what we have so the cursors reflect it,
                // then reconnect.
                if pending.flush(shared, cursors, ctl).is_err() {
                    return StreamExit::Resync;
                }
                return StreamExit::Reconnect;
            }
        };
        let (tick, caught) = (msg.is_none(), matches!(msg, Some(Msg::CaughtUp)));
        let flush = match msg {
            Some(Msg::Welcome { resume, .. }) => {
                if !resume {
                    // Snapshot incoming: our cursors are meaningless now.
                    cursors.clear();
                }
                false
            }
            Some(Msg::Snapshot(bytes)) => {
                let installed =
                    snapshot::parse(&bytes).and_then(|doc| shard::install(&shared.shards, doc));
                if let Err(e) = installed {
                    eprintln!("qdelay-serve: replicated snapshot rejected ({e}); full resync");
                    return StreamExit::Resync;
                }
                false
            }
            Some(Msg::Record { cursor, record }) => {
                pending.push(cursor, record);
                pending.records.len() >= APPLY_BATCH
            }
            Some(Msg::Hello { .. }) => {
                eprintln!("qdelay-serve: primary sent HELLO (protocol confusion); full resync");
                return StreamExit::Resync;
            }
            // Caught up, or a tick: apply everything buffered.
            Some(Msg::CaughtUp) | None => true,
        };
        if flush {
            if let Err(e) = pending.flush(shared, cursors, ctl) {
                eprintln!("qdelay-serve: replica apply failed ({e}); full resync");
                return StreamExit::Resync;
            }
        }
        if caught && !caught_up {
            caught_up = true;
            qdelay_repl::CATCHUP_MS.record(connected_at.elapsed().as_millis() as u64);
        }
        // A tick also polls shutdown and promotion.
        if tick && shared.shutdown.load(Ordering::SeqCst) {
            return StreamExit::Stop;
        }
        if tick && ctl.requested.load(Ordering::SeqCst) {
            finish_promotion(shared, ctl);
            return StreamExit::Stop;
        }
    }
}

/// Replica-mode apply thread: stream the primary's WAL into the shards,
/// reconnecting (with the cursors kept) on connection loss and resyncing
/// from a snapshot after corruption. Exits on shutdown or promotion.
pub(crate) fn replica_loop(shared: Arc<Shared>, primary: String) {
    let ctl = shared.replica.as_ref().expect("replica_loop needs ReplicaCtl");
    let mut cursors: HashMap<(u64, u32), Cursor> = HashMap::new();
    let mut backoff = Duration::from_millis(250);
    'outer: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        if ctl.requested.load(Ordering::SeqCst) {
            finish_promotion(&shared, ctl);
            return;
        }
        let resume: Vec<Cursor> = cursors.values().copied().collect();
        if let Ok(client) = ReplClient::connect(primary.as_str(), &resume, Duration::from_millis(100))
        {
            backoff = Duration::from_millis(250);
            match run_stream(&shared, client, &mut cursors, ctl) {
                StreamExit::Stop => break 'outer,
                StreamExit::Reconnect => {}
                StreamExit::Resync => cursors.clear(),
            }
        }
        // Backoff in short slices so shutdown and promotion stay
        // responsive while the primary is unreachable.
        let mut waited = Duration::ZERO;
        while waited < backoff {
            if shared.shutdown.load(Ordering::SeqCst)
                || ctl.requested.load(Ordering::SeqCst)
            {
                continue 'outer;
            }
            std::thread::sleep(Duration::from_millis(50));
            waited += Duration::from_millis(50);
        }
        backoff = (backoff * 2).min(Duration::from_secs(2));
    }
    // Shutdown: fail any promotion request that raced it.
    for tx in ctl.waiters.lock().expect("promote waiters lock").drain(..) {
        let _ = tx.send(Err("server is shutting down".into()));
    }
}
