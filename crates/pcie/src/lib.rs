//! PCI-Express fabric model — the interconnect of the Triple-A all-flash
//! array (paper §2.1, Figures 2 and 5).
//!
//! PCI-E is a dual-simplex, point-to-point serial interconnect. The model
//! captures what the paper's simulator captured (§5.1): "PCI-E data
//! movement delay, switching and routing latencies, and I/O request
//! contention cycles":
//!
//! * [`TLP_OVERHEAD`] — the wire framing every transaction-layer
//!   packet adds to its payload.
//! * [`PcieLink`] / [`DuplexLink`] — serialising links with generation/
//!   lane-derived bandwidth and propagation delay.
//! * [`CreditQueue`] — virtual-channel buffers with credit-based flow
//!   control: a transmitter may only send when the receiver has space,
//!   so full buffers back-pressure upstream (the "queue stall" times of
//!   the paper's Figure 15).
//! * [`Switch`], [`RootComplex`], [`Endpoint`] — the three device roles,
//!   with address routing over a configurable [`Topology`].
//!
//! # Example
//!
//! ```
//! use triplea_pcie::{PcieLink, LinkGen, TLP_OVERHEAD};
//! use triplea_sim::SimTime;
//!
//! let mut link = PcieLink::new(LinkGen::Gen3, 4, 100);
//! // One read completion carrying a 4 KB page.
//! let r = link.transmit(SimTime::ZERO, 4096 + TLP_OVERHEAD);
//! assert!(r.end > r.start);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod flow;
mod link;
mod topology;

pub use device::{Endpoint, RootComplex, Switch};
pub use flow::{Admission, CreditQueue};
pub use link::{DuplexLink, LinkGen, PcieFaultProfile, PcieLink};
pub use topology::{ClusterId, PcieParams, Topology};

/// Wire bytes every transaction-layer packet adds to its payload: PCI-E
/// 3.0 framing of 2 B start + 2 B sequence number, a 12 B TLP header,
/// a 4 B LCRC and 4 B end/framing. These are exactly the per-layer
/// header, sequence and CRC fields the endpoint's device layers strip
/// (paper §3.4). A read request is one bare header; a page of data
/// travels as one TLP of `page_size + TLP_OVERHEAD` bytes.
pub const TLP_OVERHEAD: u64 = 24;
