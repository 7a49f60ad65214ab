//! The router's thread budget, in its own test binary so that no other
//! test's threads are counted: a client connection costs the router a
//! socket on an event loop, never a thread.

use ntp_cluster::{start, BackendSpec, RouterConfig};
use ntp_serve::{config::ServeConfig, serve, Client};

/// This process's threads, as the kernel lists them.
fn tasks() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

#[test]
fn router_threads_do_not_grow_with_client_connections() {
    let backend = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("backend binds");
    let router = start(RouterConfig::new(vec![BackendSpec {
        addr: backend.local_addr().to_string(),
        snapshot_dir: None,
    }]))
    .expect("router binds");
    let mut clients: Vec<Client> = Vec::new();
    let mut open = |session: u64| {
        let mut client = Client::connect(router.local_addr()).expect("connect through router");
        client.hello(session, 12, 4).expect("hello");
        clients.push(client);
    };
    open(1);
    let one = tasks();
    for session in 2..=16 {
        open(session);
    }
    let sixteen = tasks();
    assert_eq!(
        one, sixteen,
        "16 client connections took the process from {one} to {sixteen} threads"
    );
    drop(clients);
    router.request_shutdown();
    router.join();
    backend.request_shutdown();
    backend.join();
}
