//! `vcache`: the LLC thrash prober (the follow-up paper's cache
//! abstraction, built on vSched's prober pattern).
//!
//! Estimates per-LLC-domain cache pressure from *timed pointer-chase
//! micro-probes*, modelled analytically like vtop's ping-pong: each probe
//! walks a pointer chain sized to the LLC and times the mean per-access
//! latency through [`guestos::Platform::llc_probe_ns`]. On a quiet socket
//! every access hits in the LLC; as neighbours thrash the cache the mean
//! latency drifts toward a DRAM-ish line fill. The prober normalizes that
//! drift into a **pressure** estimate in `[0, 1]` per LLC domain:
//!
//! ```text
//! pressure = (latency − hit_ns) / (miss_ns − hit_ns)   clamped to [0, 1]
//! ```
//!
//! Domains come from `vtop`'s probed socket masks (one domain until the
//! first topology lands). Every window the prober takes
//! [`VCACHE_SAMPLES`] samples per domain — probing whichever
//! domain member is currently on-core, rotating the starting member so a
//! stacked vCPU cannot starve its domain — aggregates them by median, and
//! publishes the estimate with a freshness timestamp consumers check
//! against [`VCACHE_STALENESS_NS`].
//!
//! The prober is **born hardened** (PR 9's vcap discipline): window
//! aggregates are vetted against a median/MAD band over accepted history,
//! rejections bump an interference-suspicion score that feeds the
//! resilience layer, and windows with no usable sample surface as typed
//! [`ProbeError`]s — never panics.

use crate::error::ProbeError;
use crate::tunables::{VCACHE_HIT_NS, VCACHE_MISS_NS, VCACHE_SAMPLES, VCACHE_STALENESS_NS};
use crate::vet::{median_of, BandFloor, Vet};
use guestos::{CpuMask, Kernel, PerceivedTopology, Platform, VcpuId};
use simcore::SimTime;
use trace::{EventKind, ProbeKind};

/// Absolute floor of the median/MAD rejection band: pressure is already
/// normalized to `[0, 1]`, so swings under this are always believable.
const BAND_FLOOR: BandFloor = BandFloor::Absolute(0.2);

/// Normalizes a measured mean-access latency into `[0, 1]` pressure.
fn pressure_from_latency(lat: f64) -> f64 {
    ((lat - VCACHE_HIT_NS) / (VCACHE_MISS_NS - VCACHE_HIT_NS)).clamp(0.0, 1.0)
}

/// The LLC thrash prober.
pub struct Vcache {
    nr_vcpus: usize,
    /// Median/MAD vetting + suspicion scoring. vcache is born hardened:
    /// on by default, unlike the opt-in vcap/vtop hardening.
    pub hardened: bool,
    /// LLC domain of each vCPU (from vtop's socket masks).
    domain_of: Vec<usize>,
    nr_domains: usize,
    /// Published pressure estimate per domain (`None` until probed).
    pub pressure: Vec<Option<f64>>,
    /// When each domain's estimate was last refreshed.
    pub last_update: Vec<SimTime>,
    /// Raw samples collected per domain in the open window.
    samples: Vec<Vec<f64>>,
    window_open: bool,
    samples_taken: u32,
    /// Rotating start offset into each domain's member list.
    rr: usize,
    /// Vetting of each domain's window aggregates.
    pub vet: Vet,
    /// Windows closed over the run.
    pub windows: u64,
}

impl Vcache {
    /// Creates the prober with a single LLC domain (pre-topology).
    pub fn new(nr_vcpus: usize) -> Self {
        Self {
            nr_vcpus,
            hardened: true,
            domain_of: vec![0; nr_vcpus],
            nr_domains: 1,
            pressure: vec![None],
            last_update: vec![SimTime::ZERO],
            samples: vec![Vec::new()],
            window_open: false,
            samples_taken: 0,
            rr: 0,
            vet: Vet::new(1, BAND_FLOOR),
            windows: 0,
        }
    }

    /// Rebuilds LLC domains from a freshly probed topology (unique socket
    /// masks, in vCPU order). Estimates reset when the partition changes:
    /// pressure published for an obsolete domain must not steer picks.
    pub fn set_domains(&mut self, topo: &PerceivedTopology) {
        let mut masks: Vec<CpuMask> = Vec::new();
        let domain_of: Vec<usize> = topo.socket[..self.nr_vcpus]
            .iter()
            .map(|m| match masks.iter().position(|x| x == m) {
                Some(d) => d,
                None => {
                    masks.push(*m);
                    masks.len() - 1
                }
            })
            .collect();
        if domain_of != self.domain_of {
            let n = masks.len().max(1);
            self.nr_domains = n;
            self.domain_of = domain_of;
            self.pressure = vec![None; n];
            self.last_update = vec![SimTime::ZERO; n];
            self.samples = vec![Vec::new(); n];
            self.vet.reset(n);
        }
    }

    /// Whether a sampling window is currently open.
    pub fn window_open(&self) -> bool {
        self.window_open
    }

    /// The LLC domain a vCPU belongs to.
    pub fn domain(&self, v: VcpuId) -> usize {
        self.domain_of[v.0]
    }

    /// Opens a sampling window.
    pub fn open_window(&mut self) {
        debug_assert!(!self.window_open);
        self.window_open = true;
        self.samples_taken = 0;
        for s in &mut self.samples {
            s.clear();
        }
    }

    /// Takes one timed sample per domain (from whichever member is
    /// currently on-core). Returns true while the window needs more
    /// samples; the caller re-arms the sample timer.
    pub fn sample_step(&mut self, kern: &mut Kernel, plat: &mut dyn Platform) -> bool {
        debug_assert!(self.window_open);
        let now = plat.now();
        for d in 0..self.nr_domains {
            let members: Vec<usize> = (0..self.nr_vcpus)
                .filter(|&v| self.domain_of[v] == d)
                .collect();
            if members.is_empty() {
                continue;
            }
            for k in 0..members.len() {
                let v = members[(self.rr + k) % members.len()];
                if let Some(lat) = plat.llc_probe_ns(VcpuId(v)) {
                    let pressure = pressure_from_latency(lat);
                    self.samples[d].push(pressure);
                    kern.trace.emit(
                        now,
                        EventKind::CacheProbe {
                            vcpu: v as u16,
                            domain: d as u16,
                            latency_ns: lat,
                            pressure,
                        },
                    );
                    break;
                }
            }
        }
        self.rr = self.rr.wrapping_add(1);
        self.samples_taken += 1;
        self.samples_taken < VCACHE_SAMPLES
    }

    /// Closes the window: aggregates each domain's samples by median,
    /// vets the aggregate against accepted history, publishes survivors.
    ///
    /// Errors when no domain published (every sample missed or rejected);
    /// previous estimates stay in place but age toward staleness.
    pub fn close_window(
        &mut self,
        kern: &mut Kernel,
        plat: &mut dyn Platform,
    ) -> Result<(), ProbeError> {
        debug_assert!(self.window_open);
        self.window_open = false;
        self.windows += 1;
        let now = plat.now();
        let mut published = 0usize;
        let mut rejected_now = false;
        for d in 0..self.nr_domains {
            let samples = std::mem::take(&mut self.samples[d]);
            if samples.is_empty() {
                continue;
            }
            let agg = median_of(samples.iter().copied());
            if self.hardened {
                if let Some(med) = self.vet.outlier(d, agg) {
                    // A poisoned aggregate must not be published and must
                    // not count toward `published` — an all-rejected
                    // window rides the NoSamples path.
                    self.vet.reject();
                    rejected_now = true;
                    let rep = self.domain_of.iter().position(|&x| x == d).unwrap_or(0);
                    kern.trace.emit(
                        now,
                        EventKind::ProbeRejected {
                            vcpu: rep as u16,
                            probe: ProbeKind::Vcache,
                            sample: agg,
                            median: med,
                        },
                    );
                    continue;
                }
                self.vet.accept(d, agg);
            }
            self.pressure[d] = Some(agg);
            self.last_update[d] = now;
            published += 1;
        }
        if self.hardened {
            self.vet.end_window(!rejected_now);
        }
        if published == 0 {
            return Err(ProbeError::NoSamples(ProbeKind::Vcache));
        }
        Ok(())
    }

    /// A vCPU's domain pressure, if published and fresh at `now`.
    pub fn pressure_of(&self, v: VcpuId, now: SimTime) -> Option<f64> {
        let d = self.domain_of[v.0];
        let p = self.pressure[d]?;
        (now.since(self.last_update[d]) <= VCACHE_STALENESS_NS).then_some(p)
    }

    /// The lowest fresh published pressure over all domains, if any.
    pub fn best_pressure(&self, now: SimTime) -> Option<f64> {
        let mut best: Option<f64> = None;
        for d in 0..self.nr_domains {
            let Some(p) = self.pressure[d] else { continue };
            if now.since(self.last_update[d]) > VCACHE_STALENESS_NS {
                continue;
            }
            best = Some(match best {
                Some(b) => b.min(p),
                None => p,
            });
        }
        best
    }

    /// Mean published pressure (0 when nothing is published) — the
    /// aggregate the resilience layer scores surprise against.
    pub fn mean_pressure(&self) -> f64 {
        let vals: Vec<f64> = self.pressure.iter().filter_map(|p| *p).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guestos::domains::PerceivedTopology;

    #[test]
    fn pressure_normalization_clamps() {
        assert_eq!(pressure_from_latency(48.0), 0.0);
        assert_eq!(pressure_from_latency(113.0), 1.0);
        assert_eq!(pressure_from_latency(10.0), 0.0);
        assert_eq!(pressure_from_latency(500.0), 1.0);
        let mid = pressure_from_latency(80.5);
        assert!((mid - 0.5).abs() < 1e-9);
    }

    #[test]
    fn domains_follow_socket_masks() {
        let mut vc = Vcache::new(4);
        assert_eq!(vc.nr_domains, 1);
        let topo = PerceivedTopology::from_groups(4, &[], &[], &[vec![0, 1], vec![2, 3]]);
        vc.set_domains(&topo);
        assert_eq!(vc.nr_domains, 2);
        assert_eq!(vc.domain(VcpuId(0)), vc.domain(VcpuId(1)));
        assert_ne!(vc.domain(VcpuId(0)), vc.domain(VcpuId(2)));
    }

    #[test]
    fn staleness_gates_consumers() {
        let mut vc = Vcache::new(2);
        vc.pressure[0] = Some(0.4);
        vc.last_update[0] = SimTime::ZERO.after(1_000_000);
        let fresh = SimTime::ZERO.after(2_000_000);
        let stale = SimTime::ZERO.after(5_000_000_000);
        assert_eq!(vc.pressure_of(VcpuId(0), fresh), Some(0.4));
        assert_eq!(vc.pressure_of(VcpuId(0), stale), None);
        assert_eq!(vc.best_pressure(fresh), Some(0.4));
        assert_eq!(vc.best_pressure(stale), None);
    }

    #[test]
    fn vetting_rejects_outlier_aggregates() {
        let mut vc = Vcache::new(1);
        for _ in 0..6 {
            vc.vet.accept(0, 0.1);
        }
        // Directly exercise the band close_window vets against.
        assert_eq!(
            vc.vet.outlier(0, 0.9),
            Some(0.1),
            "a thrash spike is an outlier"
        );
        assert_eq!(vc.vet.outlier(0, 0.25), None, "modest drift is accepted");
    }
}
