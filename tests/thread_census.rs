//! Thread census of a running server: the transport is one I/O thread no
//! matter how many connections are open, and `join` leaves nothing behind.
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
    // One thread per shard, the metrics sampler, and the one I/O loop
    // serving both listeners.
    let running = threads();
    assert_eq!(running, before_start + SHARDS + 2, "shards + metrics + one I/O thread");

    // 32 idle JSON connections, each proven adopted by a round trip.
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
