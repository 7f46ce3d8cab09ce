//! The load driver: one thread, at most `nproc` nonblocking
//! connections multiplexed over `ppoll`.
//!
//! Replies come back in request order on each connection, so the
//! driver pairs them FIFO and checks each reply's id against its
//! request.  Latency is timed from when a line is queued for the socket
//! (closed loop) or from the request's scheduled send time (open loop,
//! so a stall also charges the requests it delays); lateness of the
//! open-loop generator is recorded per request.
//!
//! The driver does as little as possible per reply inside the window:
//! a reply whose problem has a reference reply (the `hot_cached`
//! warm-up) is compared with it byte for byte in place, and every other
//! reply is copied into an arena and checked against the oracle after
//! the window closes.

use crate::sys;
use crate::workload::{Load, Workload};
use sdp_serve::evloop::{PollFd, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How long replies may trail the last send before they count as
/// unanswered.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Socket read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// A request awaiting its reply on one connection.
#[derive(Clone, Copy, Debug)]
struct Outstanding {
    id: u64,
    problem: u32,
    start_ns: u64,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    scratch: Box<[u8]>,
    out: VecDeque<Outstanding>,
}

/// Splits a reply line into its id and the bytes after `{"id":N`.
pub fn split_id(line: &[u8]) -> Option<(u64, &[u8])> {
    let rest = line.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    Some((id, &rest[digits..]))
}

impl Conn {
    fn flush(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(())
    }

    /// Reads what the socket has; returns false at end of stream.
    fn fill(&mut self) -> io::Result<bool> {
        loop {
            match self.stream.read(&mut self.scratch) {
                Ok(0) => return Ok(false),
                Ok(n) => self.rbuf.extend_from_slice(&self.scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends control line `{"id":0,...}` and blocks for its reply,
    /// skipping any stale lines from an abandoned run.
    pub fn control(&mut self, line: &str) -> io::Result<String> {
        self.out.clear();
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        let deadline = Instant::now() + DRAIN_GRACE;
        loop {
            self.flush()?;
            if !self.fill()? {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            while let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
                let reply: Vec<u8> = self.rbuf.drain(..=pos).collect();
                if let Some((0, _)) = split_id(&reply) {
                    return Ok(String::from_utf8_lossy(&reply[..pos]).into_owned());
                }
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ErrorKind::TimedOut.into());
            }
            let events = POLLIN | if self.wbuf.is_empty() { 0 } else { POLLOUT };
            sys::poll(
                &mut [PollFd::new(self.stream.as_raw_fd(), events)],
                Some(deadline - now),
            );
        }
    }
}

/// Opens `n` nonblocking, no-delay connections to `addr`.
pub fn connect(addr: std::net::SocketAddr, n: usize) -> io::Result<Vec<Conn>> {
    (0..n)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                rbuf: Vec::new(),
                scratch: vec![0; READ_CHUNK].into_boxed_slice(),
                out: VecDeque::new(),
            })
        })
        .collect()
}

/// Latency recorded for a request that failed: it misses every limit.
pub const FAILED: u32 = u32::MAX;

/// A request whose reply is checked after the window: one that had no
/// reference reply to compare with in place, one that differed from
/// it, or one never answered.
#[derive(Clone, Copy, Debug)]
pub struct Kept {
    /// Correlation id.
    pub id: u64,
    /// Index into the workload's problem table.
    pub problem: u32,
    /// Its latency is `run.lat[interval][pos]`.
    pub interval: u32,
    /// See `interval`.
    pub pos: u32,
    /// The reply line in the arena, newline stripped; `None` when
    /// unanswered.
    pub line: Option<(usize, usize)>,
    /// It already differed from its reference reply.
    pub wrong: bool,
}

/// Spacing of the CPU-clock samples taken during a window.
const TICK_NS: u64 = 500_000_000;

/// The process and driver-thread CPU clocks at one instant of a window.
#[derive(Clone, Copy, Debug)]
pub struct Tick {
    /// When, ns since the run began.
    pub at_ns: u64,
    /// CPU used by the whole process so far.
    pub process: Duration,
    /// CPU used by the driver thread so far.
    pub driver: Duration,
}

impl Tick {
    fn at(at_ns: u64) -> Tick {
        Tick {
            at_ns,
            process: sys::process_cpu(),
            driver: sys::thread_cpu(),
        }
    }
}

/// Everything one driven run observed, kept compact: a cached reply
/// that matches its reference costs four bytes (its latency).
#[derive(Debug)]
pub struct Run {
    /// Requests sent.
    pub sent: u64,
    /// Latencies in ns (saturating below [`FAILED`]), by the tick
    /// interval the reply completed in; set-up runs have one interval.
    pub lat: Vec<Vec<u32>>,
    /// Requests checked after the run.
    pub kept: Vec<Kept>,
    /// Open-loop lateness of each request, ns.
    pub late_ns: Vec<u32>,
    /// Window runs: clock samples at the start, about every
    /// [`TICK_NS`], and after the last reply; interval `i` of `lat`
    /// runs from `ticks[i]` to `ticks[i + 1]`.
    pub ticks: Vec<Tick>,
    /// Kept reply lines.
    pub arena: Vec<u8>,
}

impl Run {
    /// The reply line of `kept`, if it was answered.
    pub fn line(&self, kept: &Kept) -> Option<&[u8]> {
        kept.line.map(|(start, end)| &self.arena[start..end])
    }

    /// Replies that came back.
    pub fn answered(&self) -> u64 {
        self.sent - self.kept.iter().filter(|k| k.line.is_none()).count() as u64
    }
}

/// Which requests a run sends.
pub enum Feed<'a> {
    /// Exactly these problems, then stop (set-up).
    List(&'a [u32]),
    /// The workload's stream until the window closes.
    Window(Duration),
}

/// Reference replies, per problem: the reply bytes after `{"id":N`.
pub type References = Vec<Option<Vec<u8>>>;

/// Drives one run over `conns` and returns what it saw.  Ids start at
/// `first_id`; `refs` enables in-place comparison for problems that
/// have a reference reply.
pub fn drive(
    conns: &mut [Conn],
    wl: &mut Workload,
    load: Load,
    feed: Feed<'_>,
    refs: &References,
    first_id: u64,
) -> io::Result<Run> {
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let (list, window_ns) = match feed {
        Feed::List(list) => (Some(list), u64::MAX),
        Feed::Window(d) => (None, d.as_nanos() as u64),
    };
    let mut run = Run {
        sent: 0,
        lat: vec![Vec::new()],
        kept: Vec::new(),
        late_ns: Vec::new(),
        ticks: Vec::new(),
        arena: Vec::new(),
    };
    let mut next_list = 0usize;
    let mut drain_deadline_ns = u64::MAX;
    let mut next_tick_ns = if list.is_none() {
        run.ticks.push(Tick::at(0));
        TICK_NS
    } else {
        u64::MAX
    };
    let gap_ns = match load {
        Load::Open { rate_per_s } => 1e9 / rate_per_s,
        Load::Closed { .. } => 0.0,
    };
    let n_conns = conns.len();
    let mut fds: Vec<PollFd> = Vec::with_capacity(n_conns);
    loop {
        let now = now_ns();
        if now >= next_tick_ns && now < window_ns {
            run.ticks.push(Tick::at(now));
            run.lat.push(Vec::new());
            next_tick_ns += TICK_NS;
        }
        let sending = match list {
            Some(list) => next_list < list.len(),
            None => now < window_ns,
        };
        // Queue what is due.
        if sending {
            let mut take = |wl: &mut Workload| match list {
                Some(list) => {
                    let p = list.get(next_list).copied();
                    next_list += 1;
                    p
                }
                None => Some(wl.next()),
            };
            match load {
                Load::Closed { window } => {
                    for conn in conns.iter_mut() {
                        while conn.out.len() < window {
                            let Some(problem) = take(wl) else { break };
                            let start_ns = now_ns();
                            enqueue(&mut run, conn, wl, problem, first_id, start_ns);
                        }
                    }
                }
                Load::Open { .. } => loop {
                    let i = run.sent;
                    let due = (i as f64 * gap_ns) as u64;
                    let now = now_ns();
                    if due > now || due >= window_ns {
                        break;
                    }
                    let Some(problem) = take(wl) else { break };
                    let conn = &mut conns[i as usize % n_conns];
                    enqueue(&mut run, conn, wl, problem, first_id, due);
                    run.late_ns.push(saturate(now - due));
                },
            }
        } else if drain_deadline_ns == u64::MAX {
            drain_deadline_ns = now.saturating_add(DRAIN_GRACE.as_nanos() as u64);
        }
        for conn in conns.iter_mut() {
            conn.flush()?;
        }
        let outstanding: usize = conns.iter().map(|c| c.out.len()).sum();
        if (!sending && outstanding == 0) || now >= drain_deadline_ns {
            break;
        }
        // Wait for replies, writability, the next due send or tick.
        fds.clear();
        for conn in conns.iter() {
            let mut events = 0;
            if !conn.out.is_empty() {
                events |= POLLIN;
            }
            if conn.wpos < conn.wbuf.len() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        let wake_ns = match load {
            _ if !sending => drain_deadline_ns,
            Load::Open { .. } => ((run.sent as f64 * gap_ns) as u64).min(window_ns),
            Load::Closed { .. } if list.is_none() => window_ns.min(next_tick_ns),
            Load::Closed { .. } => now + DRAIN_GRACE.as_nanos() as u64,
        };
        let now = now_ns();
        if wake_ns > now {
            sys::poll(&mut fds, Some(Duration::from_nanos(wake_ns - now)));
        }
        for (conn, pfd) in conns.iter_mut().zip(&fds) {
            if pfd.revents == 0 {
                continue;
            }
            if pfd.revents & POLLOUT != 0 {
                conn.flush()?;
            }
            if pfd.revents & !POLLOUT != 0 {
                let open = conn.fill()?;
                let at = now_ns();
                take_replies(&mut run, conn, refs, at);
                if !open && !conn.out.is_empty() {
                    return Err(ErrorKind::UnexpectedEof.into());
                }
            }
        }
    }
    if list.is_none() {
        run.ticks.push(Tick::at(now_ns()));
    }
    // Whatever is still outstanding was never answered.
    for conn in conns.iter_mut() {
        for o in conn.out.drain(..) {
            keep(&mut run, o, None, false);
        }
    }
    Ok(run)
}

fn saturate(ns: u64) -> u32 {
    ns.min(u64::from(FAILED - 1)) as u32
}

fn enqueue(
    run: &mut Run,
    conn: &mut Conn,
    wl: &Workload,
    problem: u32,
    first_id: u64,
    start_ns: u64,
) {
    let id = first_id + run.sent;
    run.sent += 1;
    wl.write_line(problem, id, &mut conn.wbuf);
    conn.out.push_back(Outstanding {
        id,
        problem,
        start_ns,
    });
}

/// Records `o`'s latency as failed (unanswered) or already measured,
/// and keeps it for checking.
fn keep(run: &mut Run, o: Outstanding, line: Option<(usize, usize)>, wrong: bool) {
    let interval = run.lat.len() - 1;
    if line.is_none() {
        run.lat[interval].push(FAILED);
    }
    run.kept.push(Kept {
        id: o.id,
        problem: o.problem,
        interval: interval as u32,
        pos: run.lat[interval].len() as u32 - 1,
        line,
        wrong,
    });
}

/// Pairs every complete reply line in `conn.rbuf` with its request.
fn take_replies(run: &mut Run, conn: &mut Conn, refs: &References, at: u64) {
    let mut consumed = 0;
    while let Some(len) = conn.rbuf[consumed..].iter().position(|&b| b == b'\n') {
        let line = &conn.rbuf[consumed..consumed + len];
        consumed += len + 1;
        let Some(o) = conn.out.pop_front() else {
            // A reply nobody asked for: nothing to pair it with.
            continue;
        };
        run.lat
            .last_mut()
            .expect("one interval at least")
            .push(saturate(at.saturating_sub(o.start_ns)));
        let reference = refs.get(o.problem as usize).and_then(Option::as_deref);
        let matched = matches!((split_id(line), reference),
            (Some((id, rest)), Some(r)) if id == o.id && rest == r);
        if !matched {
            let start = run.arena.len();
            run.arena.extend_from_slice(line);
            let span = (start, run.arena.len());
            keep(run, o, Some(span), reference.is_some());
        }
    }
    conn.rbuf.drain(..consumed);
}
