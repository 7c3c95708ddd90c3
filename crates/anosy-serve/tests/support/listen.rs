//! Spawning the real `anosy-served` on a loopback socket for the end-to-end socket tests
//! (`wire_smoke.rs`, `frame_smoke.rs`, `poll_transport.rs`).

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `anosy-served --listen` and the address its banner announced.
pub struct Listening {
    pub child: Child,
    pub addr: String,
    /// Held open so the server's later stdout lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

/// Spawns `anosy-served` with `args` (which must include `--listen`) and reads the bound
/// address from the first token of its first stdout line, `# listening on ADDR reactors=N`.
pub fn listen(args: &[&str]) -> Listening {
    let mut child = Command::new(env!("CARGO_BIN_EXE_anosy-served"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("anosy-served spawns");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("banner line is readable");
    let addr = banner
        .trim()
        .strip_prefix("# listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("unexpected banner `{banner}`"))
        .to_string();
    Listening { child, addr, _stdout: stdout }
}
