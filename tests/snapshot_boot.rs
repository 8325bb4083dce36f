//! Booting from a snapshot file the reader refuses.
//!
//! A snapshot document that names one partition twice has no one state to
//! install: under a resident cap, two entries for a key that straddled the
//! cap used to land one resident and one hibernated, so a capped server
//! served the first entry where an uncapped one served the last. The one
//! snapshot reader now refuses such a document, so a capped and an
//! uncapped server both refuse to boot from it — with `InvalidData`
//! naming the key — whether the key is named twice as a partition or as a
//! partition and a dead cursor.

use qdelay::serve::registry::{Partition, PartitionKey};
use qdelay::serve::server::{Server, ServerConfig};
use qdelay::serve::snapshot;
use std::path::PathBuf;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qdelay-snapshot-boot-it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grown(waits: u64, scale: f64) -> Partition {
    let mut p = Partition::new();
    for i in 0..waits {
        p.observe((i % 17) as f64 * scale, None, None);
    }
    p
}

#[test]
fn capped_and_uncapped_servers_refuse_a_snapshot_that_names_a_key_twice() {
    let dir = fresh_dir("duplicate");
    let twice = PartitionKey::for_request("s", "q", 2);
    let other = PartitionKey::for_request("s", "q", 8);
    let documents = [
        (
            "twice live",
            snapshot::render(
                vec![
                    grown(80, 1.0).to_snapshot(&twice),
                    grown(90, 100.0).to_snapshot(&twice),
                    grown(70, 3.0).to_snapshot(&other),
                ],
                Vec::new(),
            )
            .unwrap(),
        ),
        (
            "live and dead",
            snapshot::render(
                vec![grown(80, 1.0).to_snapshot(&twice), grown(70, 3.0).to_snapshot(&other)],
                vec![(twice.clone(), 95)],
            )
            .unwrap(),
        ),
    ];
    for (what, rendered) in documents {
        let path = dir.join("snap.json");
        std::fs::write(&path, &rendered).unwrap();
        for cap in [Some(1), None] {
            let config = ServerConfig {
                shards: 2,
                snapshot_path: Some(path.clone()),
                max_resident: cap,
                ..ServerConfig::default()
            };
            let err = match Server::start("127.0.0.1:0", config) {
                Ok(_) => panic!("{what}, cap {cap:?}: a duplicate-key snapshot booted"),
                Err(e) => e,
            };
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}, cap {cap:?}");
            assert!(
                err.to_string().contains("s/q/1-4 twice"),
                "{what}, cap {cap:?}: the error names the key: {err}"
            );
        }
        assert_eq!(std::fs::read(&path).unwrap(), rendered, "{what}: a refused file is untouched");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
