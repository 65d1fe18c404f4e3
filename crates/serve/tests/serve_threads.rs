//! An idle server costs one thread. Jobs are computed on the threads of
//! the requests that admitted them, so a started server with no
//! connections runs its accept loop and nothing else. Own single-test
//! binary: it counts every thread of the process.

use mic_serve::server::{ServeOpts, Server};
use std::time::Duration;

/// The names (`comm`) of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect()
}

#[test]
fn an_idle_server_runs_one_thread() {
    let before = thread_names();
    let server = Server::start("127.0.0.1:0", ServeOpts::default()).expect("start server");
    // Give a server that spawned helpers asynchronously time to show them.
    std::thread::sleep(Duration::from_millis(100));
    let running = thread_names();
    assert_eq!(
        running.len(),
        before.len() + 1,
        "an idle server adds exactly its accept loop: {before:?} -> {running:?}"
    );
    assert_eq!(
        running.iter().filter(|n| *n == "serve-accept").count(),
        1,
        "{running:?}"
    );
    server.shutdown();
    assert_eq!(thread_names().len(), before.len(), "shutdown joins it");
}
