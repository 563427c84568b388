//! Chrome trace-event JSON exporter (Perfetto-loadable).
//!
//! Maps the event log onto the trace-event format: one *process* per VM,
//! two *threads* per vCPU — the host track (`vCPU n (host)`) carrying
//! "running" slices between `VcpuResume`/`VcpuPreempt`, and the guest track
//! (`vCPU n (guest)`) carrying per-task slices between context switches —
//! plus instants for wakes/IPIs/ivh, counter tracks for prober samples, and
//! flow events chaining each task's migrations. Open `chrome://tracing` or
//! <https://ui.perfetto.dev> and load the file.
//!
//! The emitter writes JSON by hand (the workspace carries no serialization
//! dependency); tests parse its output with [`simcore::json::Json::parse`]
//! to keep it honest. Every string it writes is a static ASCII name or a
//! number, so nothing needs escaping.

use crate::event::{EventKind, TraceEvent};
use crate::ring::RingBuffer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Offset separating guest-task tracks from host tracks within a process.
const GUEST_TID_BASE: u32 = 10_000;

fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

struct Writer {
    out: String,
    first: bool,
}

impl Writer {
    fn new() -> Self {
        Self {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    /// Appends one pre-rendered event object body (without braces).
    fn event(&mut self, body: String) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('{');
        self.out.push_str(&body);
        self.out.push('}');
    }

    fn finish(mut self, dropped: u64) -> String {
        let _ = write!(
            self.out,
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":\"{dropped}\"}}}}"
        );
        self.out
    }
}

/// Renders the retained events as Chrome trace-event JSON.
pub fn chrome_trace(ring: &RingBuffer) -> String {
    let mut w = Writer::new();

    // Metadata: name every process (VM) and thread (vCPU track) that appears.
    let mut vms: BTreeSet<u16> = BTreeSet::new();
    let mut tracks: BTreeSet<(u16, u16)> = BTreeSet::new();
    for ev in ring.iter() {
        vms.insert(ev.vm);
        if let Some(v) = vcpu_of(ev) {
            tracks.insert((ev.vm, v));
        }
    }
    for vm in &vms {
        w.event(format!(
            "\"ph\":\"M\",\"pid\":{vm},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"VM {vm}\"}}"
        ));
    }
    for &(vm, v) in &tracks {
        w.event(format!(
            "\"ph\":\"M\",\"pid\":{vm},\"tid\":{v},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"vCPU {v} (host)\"}}"
        ));
        w.event(format!(
            "\"ph\":\"M\",\"pid\":{vm},\"tid\":{},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"vCPU {v} (guest)\"}}",
            GUEST_TID_BASE + v as u32
        ));
    }

    // Open-slice bookkeeping so B/E stay balanced even when the ring starts
    // mid-slice (dropped prefix) or the run ends mid-slice.
    let mut host_open: BTreeMap<(u16, u16), ()> = BTreeMap::new();
    let mut guest_open: BTreeMap<(u16, u16), u32> = BTreeMap::new();
    let mut last_ts = 0u64;

    for ev in ring.iter() {
        let t = us(ev.at.ns());
        last_ts = last_ts.max(ev.at.ns());
        let vm = ev.vm;
        match ev.kind {
            EventKind::VcpuResume { vcpu, thread } => {
                w.event(format!(
                    "\"ph\":\"B\",\"ts\":{t},\"pid\":{vm},\"tid\":{vcpu},\
                     \"cat\":\"host\",\"name\":\"running\",\
                     \"args\":{{\"thread\":{thread}}}"
                ));
                host_open.insert((vm, vcpu), ());
            }
            EventKind::VcpuPreempt { vcpu, reason } => {
                if host_open.remove(&(vm, vcpu)).is_some() {
                    w.event(format!(
                        "\"ph\":\"E\",\"ts\":{t},\"pid\":{vm},\"tid\":{vcpu},\
                         \"cat\":\"host\",\"args\":{{\"reason\":\"{reason:?}\"}}"
                    ));
                }
            }
            EventKind::VcpuWake { vcpu } | EventKind::VcpuHalt { vcpu } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\"tid\":{vcpu},\
                     \"cat\":\"host\",\"name\":\"{}\"",
                    ev.kind.name()
                ));
            }
            EventKind::ContextSwitch {
                vcpu, prev, next, ..
            } => {
                let tid = GUEST_TID_BASE + vcpu as u32;
                if prev.is_some() && guest_open.remove(&(vm, vcpu)).is_some() {
                    w.event(format!(
                        "\"ph\":\"E\",\"ts\":{t},\"pid\":{vm},\"tid\":{tid},\"cat\":\"guest\""
                    ));
                }
                if let Some(task) = next {
                    w.event(format!(
                        "\"ph\":\"B\",\"ts\":{t},\"pid\":{vm},\"tid\":{tid},\
                         \"cat\":\"guest\",\"name\":\"T{task}\""
                    ));
                    guest_open.insert((vm, vcpu), task);
                }
            }
            EventKind::TaskWake { task, vcpu, waker } => {
                let waker = waker.map_or("null".into(), |x| x.to_string());
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\
                     \"tid\":{},\"cat\":\"guest\",\"name\":\"wake T{task}\",\
                     \"args\":{{\"waker\":{waker}}}",
                    GUEST_TID_BASE + vcpu as u32
                ));
            }
            EventKind::TaskMigrate {
                task,
                from,
                to,
                kind,
            } => {
                let to_tid = GUEST_TID_BASE + to as u32;
                let from_tid = GUEST_TID_BASE + from as u32;
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\"tid\":{to_tid},\
                     \"cat\":\"guest\",\"name\":\"migrate T{task} ({kind:?})\",\
                     \"args\":{{\"from\":{from},\"to\":{to}}}"
                ));
                // Flow pair: chains this task's migrations into one arrow
                // sequence (flow id = task id).
                w.event(format!(
                    "\"ph\":\"s\",\"ts\":{t},\"pid\":{vm},\"tid\":{from_tid},\
                     \"cat\":\"migration\",\"name\":\"T{task} flow\",\"id\":{task}"
                ));
                w.event(format!(
                    "\"ph\":\"f\",\"bp\":\"e\",\"ts\":{t},\"pid\":{vm},\"tid\":{to_tid},\
                     \"cat\":\"migration\",\"name\":\"T{task} flow\",\"id\":{task}"
                ));
            }
            EventKind::ReschedIpi { from, to } => {
                let from = from.map_or("null".into(), |x| x.to_string());
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\"tid\":{to},\
                     \"cat\":\"host\",\"name\":\"resched_ipi\",\"args\":{{\"from\":{from}}}"
                ));
            }
            EventKind::ProbeSample { vcpu, probe, value } => {
                w.event(format!(
                    "\"ph\":\"C\",\"ts\":{t},\"pid\":{vm},\
                     \"name\":\"{probe:?} v{vcpu}\",\"args\":{{\"value\":{}}}",
                    json_f64(value)
                ));
            }
            EventKind::BvsSelect { task, chosen } => {
                let chosen = chosen.map_or("null".into(), |x| x.to_string());
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"p\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"bvs T{task}\",\
                     \"args\":{{\"chosen\":{chosen}}}"
                ));
            }
            EventKind::IvhPull {
                task,
                src,
                target,
                phase,
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\"tid\":{target},\
                     \"cat\":\"vsched\",\"name\":\"ivh {phase:?} T{task}\",\
                     \"args\":{{\"src\":{src}}}"
                ));
            }
            EventKind::FaultInjected { vcpu, class } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"chaos\",\"name\":\"fault {class:?}\",\
                     \"args\":{{\"vcpu\":{vcpu}}}"
                ));
            }
            EventKind::DegradedEnter { reason } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"degraded enter\",\
                     \"args\":{{\"reason\":\"{reason:?}\"}}"
                ));
            }
            EventKind::DegradedExit { after_ns } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"degraded exit\",\
                     \"args\":{{\"after_ns\":{after_ns}}}"
                ));
            }
            EventKind::ProbeRetry { probe, attempt } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"p\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"reprobe {probe:?}\",\
                     \"args\":{{\"attempt\":{attempt}}}"
                ));
            }
            EventKind::IvhAbandonedByWatchdog {
                task, src, target, ..
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"t\",\"ts\":{t},\"pid\":{vm},\"tid\":{target},\
                     \"cat\":\"vsched\",\"name\":\"ivh watchdog T{task}\",\
                     \"args\":{{\"src\":{src}}}"
                ));
            }
            EventKind::VmAdmitted { uid, vcpus, prio } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"admit VM{uid}\",\
                     \"args\":{{\"vcpus\":{vcpus},\"prio\":\"{}\"}}",
                    prio.name()
                ));
            }
            EventKind::VmPlaced {
                uid,
                host,
                occupied,
                cap,
                ..
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"place VM{uid} on H{host}\",\
                     \"args\":{{\"occupied\":{occupied},\"cap\":{cap}}}"
                ));
            }
            EventKind::VmDeparted { uid, host, .. } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"depart VM{uid} from H{host}\""
                ));
            }
            EventKind::HostFailed {
                host,
                kind,
                residents,
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"H{host} {kind:?}\",\
                     \"args\":{{\"residents\":{residents}}}"
                ));
            }
            EventKind::HostRecovered { host, down_ns } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"H{host} recovered\",\
                     \"args\":{{\"down_ns\":{down_ns}}}"
                ));
            }
            EventKind::VmMigrated { uid, from, to, .. } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"fleet\",\"name\":\"migrate VM{uid} H{from}->H{to}\""
                ));
            }
            EventKind::DomainAssigned { class } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"domain\",\"name\":\"assign {}\"",
                    class.name()
                ));
            }
            EventKind::DomainSwitch {
                index,
                class,
                slice_ns,
                ..
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"g\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"domain\",\"name\":\"slice {index} ({})\",\
                     \"args\":{{\"slice_ns\":{slice_ns}}}",
                    class.name()
                ));
            }
            EventKind::ProbeRejected { vcpu, probe, .. } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"p\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"reject {probe:?} v{vcpu}\""
                ));
            }
            EventKind::CacheProbe {
                vcpu,
                domain,
                pressure,
                ..
            } => {
                w.event(format!(
                    "\"ph\":\"C\",\"ts\":{t},\"pid\":{vm},\
                     \"name\":\"vcache d{domain} v{vcpu}\",\"args\":{{\"pressure\":{}}}",
                    json_f64(pressure)
                ));
            }
            EventKind::LlcOccupancySample {
                socket,
                occupied_bytes,
                ..
            } => {
                w.event(format!(
                    "\"ph\":\"C\",\"ts\":{t},\"pid\":{vm},\
                     \"name\":\"llc s{socket}\",\"args\":{{\"occupied_bytes\":{}}}",
                    json_f64(occupied_bytes)
                ));
            }
            EventKind::CacheAwarePick {
                task,
                chosen,
                domain,
                pressure,
                ..
            } => {
                w.event(format!(
                    "\"ph\":\"i\",\"s\":\"p\",\"ts\":{t},\"pid\":{vm},\
                     \"cat\":\"vsched\",\"name\":\"cache-aware T{task} -> v{chosen}\",\
                     \"args\":{{\"domain\":{domain},\"pressure\":{}}}",
                    json_f64(pressure)
                ));
            }
            // High-volume accounting deltas stay out of the visual trace;
            // they feed the schedstat totals and the checker instead.
            EventKind::StealAccrue { .. }
            | EventKind::TaskCharge { .. }
            | EventKind::BandwidthSet { .. }
            | EventKind::StealAccounted { .. }
            | EventKind::PeltDecay { .. } => {}
        }
    }

    // Close any still-open slice so every B has a matching E.
    let t = us(last_ts);
    for ((vm, vcpu), _) in host_open {
        w.event(format!(
            "\"ph\":\"E\",\"ts\":{t},\"pid\":{vm},\"tid\":{vcpu},\"cat\":\"host\""
        ));
    }
    for ((vm, vcpu), _) in guest_open {
        w.event(format!(
            "\"ph\":\"E\",\"ts\":{t},\"pid\":{vm},\"tid\":{},\"cat\":\"guest\"",
            GUEST_TID_BASE + vcpu as u32
        ));
    }

    w.finish(ring.dropped())
}

/// JSON has no NaN/Infinity; clamp weird samples to null.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn vcpu_of(ev: &TraceEvent) -> Option<u16> {
    match ev.kind {
        EventKind::TaskWake { vcpu, .. }
        | EventKind::ContextSwitch { vcpu, .. }
        | EventKind::VcpuResume { vcpu, .. }
        | EventKind::VcpuPreempt { vcpu, .. }
        | EventKind::VcpuWake { vcpu }
        | EventKind::VcpuHalt { vcpu }
        | EventKind::StealAccrue { vcpu, .. }
        | EventKind::ProbeSample { vcpu, .. }
        | EventKind::TaskCharge { vcpu, .. } => Some(vcpu),
        EventKind::ReschedIpi { to, .. } => Some(to),
        EventKind::TaskMigrate { to, .. } => Some(to),
        EventKind::IvhPull { target, .. } => Some(target),
        EventKind::IvhAbandonedByWatchdog { target, .. } => Some(target),
        EventKind::FaultInjected { vcpu, .. }
        | EventKind::BandwidthSet { vcpu, .. }
        | EventKind::ProbeRejected { vcpu, .. }
        | EventKind::CacheProbe { vcpu, .. } => Some(vcpu),
        EventKind::CacheAwarePick { chosen, .. } => Some(chosen),
        EventKind::BvsSelect { .. }
        | EventKind::LlcOccupancySample { .. }
        | EventKind::ProbeRetry { .. }
        | EventKind::DegradedEnter { .. }
        | EventKind::DegradedExit { .. }
        | EventKind::PeltDecay { .. }
        | EventKind::VmAdmitted { .. }
        | EventKind::VmPlaced { .. }
        | EventKind::VmDeparted { .. }
        | EventKind::HostFailed { .. }
        | EventKind::HostRecovered { .. }
        | EventKind::VmMigrated { .. }
        | EventKind::DomainAssigned { .. }
        | EventKind::DomainSwitch { .. }
        | EventKind::StealAccounted { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MigrateKind, PreemptReason, SwitchReason};
    use simcore::json::Json;
    use simcore::SimTime;

    fn sample_ring() -> RingBuffer {
        let mut r = RingBuffer::new(64);
        let mut push = |at: u64, vm: u16, kind: EventKind| {
            r.push(TraceEvent {
                at: SimTime(at),
                vm,
                kind,
            })
        };
        push(0, 0, EventKind::VcpuWake { vcpu: 0 });
        push(100, 0, EventKind::VcpuResume { vcpu: 0, thread: 1 });
        push(
            150,
            0,
            EventKind::ContextSwitch {
                vcpu: 0,
                prev: None,
                next: Some(3),
                reason: SwitchReason::Pick,
                min_vruntime: 10,
            },
        );
        push(
            200,
            0,
            EventKind::TaskWake {
                task: 4,
                vcpu: 1,
                waker: Some(3),
            },
        );
        push(
            300,
            0,
            EventKind::TaskMigrate {
                task: 4,
                from: 1,
                to: 0,
                kind: MigrateKind::Balance,
            },
        );
        push(
            400,
            0,
            EventKind::VcpuPreempt {
                vcpu: 0,
                reason: PreemptReason::Preempt,
            },
        );
        push(
            500,
            0,
            EventKind::ProbeSample {
                vcpu: 0,
                probe: crate::event::ProbeKind::Vcap,
                value: 512.25,
            },
        );
        r
    }

    #[test]
    fn exporter_produces_valid_json() {
        let json = chrome_trace(&sample_ring());
        Json::parse(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("migrate T4"));
    }

    #[test]
    fn slices_stay_balanced() {
        let json = chrome_trace(&sample_ring());
        let b = json.matches("\"ph\":\"B\"").count();
        let e = json.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e, "unbalanced B/E:\n{json}");
    }

    /// The checker the exporter tests lean on must reject malformed
    /// documents, or `exporter_produces_valid_json` proves nothing.
    #[test]
    fn validator_rejects_garbage() {
        assert!(Json::parse("{\"a\":1,}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("{\"a\":[1,2,{\"b\":null}]}").is_ok());
    }
}
