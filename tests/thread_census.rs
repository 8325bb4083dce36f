//! Thread census of a running server: the transport is one I/O loop per
//! shard no matter how many connections are open — a shard is a lock, not
//! a thread — and `join` leaves nothing behind.
//!
//! The count is of this whole process (`/proc/self/task`), which is why
//! the test lives alone in its own test binary: a sibling test running on
//! another harness thread would start and stop threads under it.

#![cfg(target_os = "linux")]

use qdelay::serve::client::Client;
use qdelay::serve::server::{Server, ServerConfig};
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The names (`comm`) of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

#[test]
fn connections_cost_no_threads_and_join_returns_them_all() {
    const SHARDS: usize = 3;
    let before_start = threads();
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            shards: SHARDS,
            binary_addr: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // One I/O loop per shard (loop 0 serving both listeners) and the
    // metrics sampler. The shards themselves have no threads.
    let running = threads();
    assert_eq!(running, before_start + SHARDS + 1, "one loop per shard + metrics");
    // A thread names itself as its first act, which can trail `start`.
    let wanted: Vec<String> = (0..SHARDS).map(|k| format!("qdelay-io-{k}")).collect();
    let named = |names: &[String]| {
        wanted.iter().all(|name| names.iter().filter(|n| *n == name).count() == 1)
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while !named(&thread_names()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let names = thread_names();
    assert!(named(&names), "loops are named {wanted:?}; threads: {names:?}");

    // 32 idle JSON connections, dealt round-robin over the loops, each
    // proven adopted by a round trip.
    let mut idle: Vec<Client> = (0..32)
        .map(|_| Client::connect(server.local_addr()).unwrap())
        .collect();
    for client in &mut idle {
        client.predict("s", "q", 1).unwrap();
    }
    assert_eq!(threads(), running, "a connection must not cost a thread");

    server.shutdown();
    server.join().unwrap();
    // A joined thread's task entry can outlive `join` by a scheduler tick.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before_start && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(threads(), before_start, "join must reap every thread start spawned");
}
