//! The two libc calls the benchmark needs beyond std: `ppoll` with a
//! nanosecond timeout (the open-loop schedule needs finer waits than
//! `poll`'s milliseconds) and `clock_gettime` for CPU clocks.  std
//! already links libc, so they are declared directly.

use sdp_serve::evloop::PollFd;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_TIMERSLACK: i32 = 29;

/// Sets the calling thread's timer slack: 1 ns keeps the open-loop
/// schedule to its due times; 0 restores the default, which threads
/// spawned afterwards inherit (so the server runs with the default).
pub fn timer_slack(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument; the
    // unused arguments are passed as zero.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0);
    }
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Waits until an fd is ready or `timeout` passes (`None`: no limit).
/// Interrupted waits return early; callers loop anyway.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) {
    let ts = timeout.map(|d| Timespec {
        tv_sec: d.as_secs() as i64,
        tv_nsec: i64::from(d.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `struct pollfd`-compatible entries (`PollFd` is `repr(C)`) whose
    // length is passed alongside; `ts_ptr` is null or points at a
    // `Timespec` that outlives the call; a null sigmask is allowed.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, ts_ptr, std::ptr::null());
    }
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time used by every thread of this process so far.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time used by the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}
