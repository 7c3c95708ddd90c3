//! The `PollTransport` queue/flush contract on real loopback sockets.
//!
//! `Transport::send` only queues; `Transport::flush` writes each connection's queue; `close`
//! writes what is still queued before the FIN; a write into a peer that reset surfaces as one
//! `Event::Failed` at the next poll. Every check here waits on blocking socket reads instead of
//! timers, so the outcomes do not depend on scheduling. Two bounds are timed: a closing
//! connection whose peer never reads retires at its flush deadline, and a listener whose
//! accept budget is spent leaves an `anosy-served` process idle.
//!
//! The last test checks the same thing from the outside: a live `anosy-served --listen`
//! shard's `metrics` answer counts fewer `write` calls than requests.

#[path = "support/listen.rs"]
mod listen;

use anosy_serve::{Event, PollTransport, Token, Transport};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// A pool-shard transport that has taken in one loopback connection as token 0 from an
/// acceptor that is already gone, so it finishes once that connection closes; the client end of
/// the connection; and a clone of its server end.
fn accepted_pair() -> (PollTransport, TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound address");
    let client = TcpStream::connect(addr).expect("loopback connect");
    let (server_side, _) = listener.accept().expect("accept");
    let server_clone = server_side.try_clone().expect("clone the server side");
    let notify_writer = TcpStream::connect(addr).expect("notify connect");
    let (notify_reader, _) = listener.accept().expect("notify accept");
    let (handoffs, intake) = std::sync::mpsc::channel();
    handoffs.send((0, server_side)).expect("hand off");
    drop((handoffs, notify_writer));
    let mut transport = PollTransport::intake(intake, notify_reader);
    assert_eq!(transport.poll(), vec![Event::Opened(Token(0))]);
    (transport, client, server_clone)
}

#[test]
fn send_queues_and_flush_writes_every_queued_response_in_order() {
    let (mut transport, mut client, _) = accepted_pair();
    transport.send(Token(0), b"0.1 ok one\n");
    transport.send(Token(0), b"0.2 ok two\n");
    transport.send(Token(0), b"0.3 ok three\n");

    client.set_nonblocking(true).expect("nonblocking client");
    let mut probe = [0u8; 64];
    let before = client.read(&mut probe).expect_err("nothing may be written before flush");
    assert_eq!(before.kind(), ErrorKind::WouldBlock);

    transport.flush();
    client.set_nonblocking(false).expect("blocking client");
    let expected = b"0.1 ok one\n0.2 ok two\n0.3 ok three\n";
    let mut received = vec![0u8; expected.len()];
    client.read_exact(&mut received).expect("flushed bytes arrive");
    assert_eq!(received, expected);

    // A second flush with nothing queued writes nothing.
    transport.flush();
    transport.send(Token(0), b"0.4 ok four\n");
    transport.flush();
    let mut line = String::new();
    BufReader::new(&client).read_line(&mut line).expect("later responses arrive");
    assert_eq!(line, "0.4 ok four\n");
}

#[test]
fn close_writes_unflushed_responses_before_the_fin() {
    let (mut transport, mut client, _) = accepted_pair();
    transport.send(Token(0), b"0.1 ok first\n");
    transport.send(Token(0), b"0.2 ok last\n");
    transport.close(Token(0));

    let mut received = String::new();
    client.read_to_string(&mut received).expect("bytes then EOF");
    assert_eq!(received, "0.1 ok first\n0.2 ok last\n");
    // The acceptor is gone and the only connection closed: the transport is finished.
    assert_eq!(transport.poll(), Vec::<Event>::new());
}

#[test]
fn a_flush_into_a_reset_peer_fails_the_connection_once() {
    // The clone of the server side lets the test wait for the reset to land without a timer.
    let (mut transport, client, watch) = accepted_pair();

    // Closing a socket with unread received bytes resets the connection (RST, as SO_LINGER 0
    // would), so deliver one unread byte first.
    transport.send(Token(0), b"x");
    transport.flush();
    client.peek(&mut [0u8; 1]).expect("the byte arrived");
    drop(client);

    // Block until the server side has seen the reset. The descriptor is shared with the
    // transport, so switch it back to nonblocking before the transport touches it again.
    watch.set_nonblocking(false).expect("blocking watch");
    let _ = watch.peek(&mut [0u8; 1]);
    watch.set_nonblocking(true).expect("nonblocking again");

    transport.send(Token(0), b"0.1 ok lost\n");
    transport.flush();
    let events = transport.poll();
    assert_eq!(events.len(), 1, "exactly one event: {events:?}");
    match &events[0] {
        Event::Failed(Token(0), reason) => {
            assert!(reason.starts_with("write error"), "a flush-time failure: {reason}")
        }
        other => panic!("expected the connection to fail, got {other:?}"),
    }

    // The connection is gone: later sends and flushes are ignored, and the transport reports
    // itself finished instead of failing the connection again.
    transport.send(Token(0), b"0.2 ok ignored\n");
    transport.flush();
    assert_eq!(transport.poll(), Vec::<Event>::new());
}

#[test]
fn a_closing_connection_that_is_never_read_retires_at_its_deadline() {
    let (mut transport, client, _) = accepted_pair();
    // Far more than the loopback socket buffers hold, so most of it stays queued.
    transport.send(Token(0), &vec![b'x'; 32 << 20]);
    transport.close(Token(0));
    // The peer never reads. Its tail is forfeit once the 2 s flush budget runs out, and the
    // transport, whose acceptor is gone, then reports itself finished.
    let (finished, outcome) = std::sync::mpsc::channel();
    // A regression hangs the poll: the timed receive fails the test instead of hanging it.
    let poller = std::thread::spawn(move || {
        let _ = finished.send(transport.poll());
    });
    let events = outcome
        .recv_timeout(Duration::from_secs(8))
        .expect("the draining connection retires at its deadline, not never");
    assert_eq!(events, Vec::<Event>::new());
    poller.join().expect("the polling thread");
    drop(client);
}

/// CPU time (user + system) `pid` has used so far, in clock ticks (Linux fixes the
/// user-visible tick at 100 per second).
#[cfg(target_os = "linux")]
fn cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("the process stat");
    // Fields after the parenthesised command name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let fields: Vec<&str> =
        stat[stat.rfind(')').expect("a command name") + 2..].split(' ').collect();
    fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime")
}

#[cfg(target_os = "linux")]
#[test]
fn a_spent_accept_budget_leaves_the_listener_idle() {
    let mut served = listen::listen(&[
        "--layout",
        "x:0:400 y:0:400",
        "--workers",
        "1",
        "--listen",
        "127.0.0.1:0",
        "--accept",
        "1",
    ]);
    let mut stream = TcpStream::connect(&served.addr).expect("loopback connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(b"stats\n").expect("stats is written");
    let mut line = String::new();
    replies.read_line(&mut line).expect("a stats answer");
    assert!(line.contains(" ok stats "), "unexpected answer: {line}");

    // The budget is spent. The kernel still completes this connect into the listen backlog,
    // which leaves the listener readable for as long as nobody accepts.
    let late = TcpStream::connect(&served.addr).expect("a late connect");
    std::thread::sleep(Duration::from_millis(100));
    let before = cpu_ticks(served.child.id());
    std::thread::sleep(Duration::from_secs(1));
    let used = cpu_ticks(served.child.id()) - before;
    assert!(used < 25, "an idle server used {used} of 100 CPU ticks in one second");

    drop(late);
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    replies.read_to_string(&mut rest).expect("the server closes");
    let status = served.child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed");
}

/// The value of counter `name` in a metrics JSON answer.
fn counter(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let rest = &json[json.find(&key)? + key.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

#[test]
fn a_listen_shard_counts_fewer_writes_than_requests() {
    let mut served = listen::listen(&[
        "--layout",
        "x:0:400 y:0:400",
        "--workers",
        "1",
        "--listen",
        "127.0.0.1:0",
        "--accept",
        "1",
    ]);
    let mut stream = TcpStream::connect(&served.addr).expect("loopback connect");
    let mut replies = BufReader::new(stream.try_clone().expect("clone"));
    let mut next_line = || {
        let mut line = String::new();
        replies.read_line(&mut line).expect("a reply line");
        line
    };
    // One round trip first, so at least one write has happened before `metrics` is answered.
    stream.write_all(b"open min-size:100\n").expect("open is written");
    let opened = next_line();
    let session = opened.trim().rsplit(' ').next().expect("a session id").to_string();
    assert!(opened.contains(" ok session "), "unexpected open answer: {opened}");

    let mut burst = String::new();
    for secret in 0..16 {
        burst.push_str(&format!("knowledge session={session} secret={secret},{secret}\n"));
    }
    burst.push_str("metrics\n");
    stream.write_all(burst.as_bytes()).expect("burst is written");
    for _ in 0..16 {
        let line = next_line();
        assert!(line.contains(" ok knowledge "), "unexpected knowledge answer: {line}");
    }
    let metrics = next_line();
    let json = metrics.split_once(" ok metrics ").map(|(_, json)| json).unwrap_or_else(|| {
        panic!("unexpected metrics answer: {metrics}");
    });
    let writes = counter(json, "wire.writes").expect("wire.writes is counted");
    let requests = counter(json, "wire.requests").expect("wire.requests is counted");
    assert!((1..=requests).contains(&writes), "writes={writes} requests={requests}: {json}");

    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    stream.read_to_string(&mut rest).expect("the server closes");
    let status = served.child.wait().expect("anosy-served exits");
    assert!(status.success(), "anosy-served failed");
}
