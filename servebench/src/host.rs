//! The host the benchmark runs on: its parallelism, and confining the benchmark to one CPU.
//!
//! Client and server share one CPU, so they hand each request over by a local context switch.
//! Spread over two CPUs of a shared virtual host, every hand-over needed a cross-CPU wake-up
//! whose delay swings with the neighbours' load, and a closed loop measured that delay more
//! than the program. Which CPU is used is chosen afresh before every round: each of a shared
//! host's virtual CPUs slows down while its neighbours are busy, and not all at once.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Dependent steps of the work [`pin_to_fastest`] times on each CPU (a few milliseconds).
const PROBE_STEPS: u64 = 1 << 20;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes of a CPU mask (`cpu_set_t`).
const MASK_BYTES: usize = 128;

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: the kernel writes at most `mask.len()` bytes into `mask`.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..MASK_BYTES * 8).filter(|&c| mask[c / 8] >> (c % 8) & 1 == 1).collect()
}

/// Confines the calling thread, and every thread and process it starts afterwards, to `cpu`.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: the kernel reads at most `mask.len()` bytes from `mask`.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}

/// Times a fixed chain of dependent arithmetic on each of `cpus` in turn, leaves the calling
/// thread confined to the fastest, and returns it (`None` when no CPU could be chosen).
pub fn pin_to_fastest(cpus: &[usize]) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for &cpu in cpus {
        if !pin_to(cpu) {
            continue;
        }
        let started = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..PROBE_STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        std::hint::black_box(x);
        let seconds = started.elapsed().as_secs_f64();
        if best.is_none_or(|(fastest, _)| seconds < fastest) {
            best = Some((seconds, cpu));
        }
    }
    let (_, cpu) = best?;
    pin_to(cpu).then_some(cpu)
}

/// Round trips one host-speed gauge reading times (a few milliseconds in all), in chunks.
const PING_PONGS: usize = 1000;
const CHUNK: usize = 50;

/// Seconds per gauge round trip at the reference host speed: about what the 2-vCPU host this
/// benchmark was written on reads while its neighbours are quiet.
pub const REFERENCE_PING_PONG_S: f64 = 8e-6;

/// The host's current speed for the closed loop's kind of work: seconds per 64-byte round
/// trip over a loopback TCP connection between the calling thread and an echo thread it
/// starts, which inherits the calling thread's CPU. Each round trip is two local context
/// switches through the loopback stack, as every request of a confined closed loop is. The
/// reading is the median over chunks of `CHUNK` round trips: a stall of a few milliseconds
/// costs a one-second round little, but would dominate a reading this short.
pub fn ping_pong_s() -> f64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("the gauge binds a loopback port");
    let addr = listener.local_addr().expect("a bound listener has an address");
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut buf = [0u8; 64];
        for _ in 0..PING_PONGS {
            stream.read_exact(&mut buf)?;
            stream.write_all(&buf)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr).expect("the gauge connects over loopback");
    stream.set_nodelay(true).expect("loopback sockets take TCP_NODELAY");
    let mut buf = [7u8; 64];
    let mut chunks = Vec::with_capacity(PING_PONGS / CHUNK);
    for _ in 0..PING_PONGS / CHUNK {
        let started = Instant::now();
        for _ in 0..CHUNK {
            stream.write_all(&buf).expect("the gauge writes over loopback");
            stream.read_exact(&mut buf).expect("the gauge reads over loopback");
        }
        chunks.push(started.elapsed().as_secs_f64() / CHUNK as f64);
    }
    echo.join().expect("the echo thread does not panic").expect("the echo thread's socket works");
    crate::stats::median(&chunks)
}

/// How much slower than the reference the host ran over a round, from the gauge readings
/// taken before and after it: a round's times are divided by this and its rates multiplied.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_PING_PONG_S
}
