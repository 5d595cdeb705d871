//! The cluster-local shared ONFi bus.

use triplea_flash::OnfiTiming;
use triplea_sim::trace::{TraceEventKind, TracePort};
use triplea_sim::{FifoResource, Nanos, Reservation, SimTime};

/// The shared NV-DDR2 channel connecting a cluster's FIMMs to its PCI-E
/// endpoint.
///
/// All data movement between FIMMs and the endpoint serialises here; time
/// spent waiting for it is the paper's **link contention**. Its windowed
/// utilization (`u_bus`) feeds the Eq. 2 cold-cluster test.
#[derive(Clone, Debug)]
pub struct OnfiBus {
    timing: OnfiTiming,
    res: FifoResource,
    transfers: u64,
    bytes: u64,
    trace: TracePort,
}

impl OnfiBus {
    /// Creates an idle bus with the given interface timing.
    pub fn new(timing: OnfiTiming) -> Self {
        OnfiBus {
            timing,
            res: FifoResource::new("onfi-bus"),
            transfers: 0,
            bytes: 0,
            trace: TracePort::off(),
        }
    }

    /// Connects this bus to an event recorder; every arbitration win
    /// (transfer or command cycle) is reported through `port` from then
    /// on, stamped at the instant the bus was actually acquired.
    pub fn attach_trace(&mut self, port: TracePort) {
        self.trace = port;
    }

    /// Reserves the bus at `now` to move `bytes`, including the fixed
    /// command/address overhead. The reservation's `wait` is the link
    /// contention charged to the caller.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Reservation {
        let dur = self.timing.dma_nanos(bytes) + self.timing.cmd_overhead;
        self.transfers += 1;
        self.bytes += bytes;
        let r = self.res.reserve(now, dur);
        self.trace.emit_at(r.start, || TraceEventKind::BusAcquire {
            wait_ns: r.wait,
            dur_ns: r.end - r.start,
            bytes,
        });
        r
    }

    /// Reserves the bus for a command-only cycle (no payload), e.g. the
    /// command/address phase of a read before the die starts.
    pub fn command_cycle(&mut self, now: SimTime) -> Reservation {
        self.transfers += 1;
        let r = self.res.reserve(now, self.timing.cmd_overhead);
        self.trace.emit_at(r.start, || TraceEventKind::BusAcquire {
            wait_ns: r.wait,
            dur_ns: r.end - r.start,
            bytes: 0,
        });
        r
    }

    /// `t_DMA` for `bytes` on this bus (excluding command overhead).
    pub fn dma_nanos(&self, bytes: u64) -> Nanos {
        self.timing.dma_nanos(bytes)
    }

    /// Instant the bus next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.res.free_at()
    }

    /// Busy fraction since the simulation start.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.res.utilization(now)
    }

    /// Busy fraction over the recent sliding window (`u_bus` in Eq. 2).
    pub fn windowed_utilization(&self, now: SimTime) -> f64 {
        self.res.windowed_utilization(now)
    }

    /// Interface timing of this bus.
    pub fn timing(&self) -> &OnfiTiming {
        &self.timing
    }

    /// Total completed transfer reservations.
    pub fn transfer_count(&self) -> u64 {
        self.transfers
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> OnfiBus {
        OnfiBus::new(OnfiTiming::default())
    }

    #[test]
    fn transfer_duration_includes_overhead() {
        let mut b = bus();
        let r = b.transfer(SimTime::ZERO, 4096);
        // 2560ns DMA + 100ns command overhead
        assert_eq!(r.end - r.start, 2_660);
        assert_eq!(r.wait, 0);
    }

    #[test]
    fn concurrent_transfers_serialise() {
        let mut b = bus();
        b.transfer(SimTime::ZERO, 4096);
        let second = b.transfer(SimTime::ZERO, 4096);
        assert_eq!(second.wait, 2_660, "bus is serially shared");
    }

    #[test]
    fn command_cycle_is_short() {
        let mut b = bus();
        let r = b.command_cycle(SimTime::ZERO);
        assert_eq!(r.end - r.start, 100);
    }

    #[test]
    fn accounting_accumulates() {
        let mut b = bus();
        b.transfer(SimTime::ZERO, 4096);
        b.transfer(SimTime::ZERO, 1024);
        b.command_cycle(SimTime::ZERO);
        assert_eq!(b.transfer_count(), 3);
        assert_eq!(b.bytes_moved(), 5120);
        assert!(b.free_at() > SimTime::ZERO);
    }

    #[test]
    fn utilization_rises_under_load() {
        let mut b = bus();
        for i in 0..10 {
            b.transfer(SimTime::from_us(i * 3), 4096);
        }
        let u = b.utilization(SimTime::from_us(30));
        assert!(u > 0.8, "u = {u}");
    }
}
