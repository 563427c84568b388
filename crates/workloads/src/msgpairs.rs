//! Message-passing workload (hackbench archetype).
//!
//! Groups of senders and receivers exchange small messages: the classic
//! scheduler stress test. Every message is a cross-task wakeup, so the
//! workload is dominated by wake-up placement, IPI costs, and communication
//! locality — exactly what the LLC-aware experiment (Figure 13) measures.

use crate::common::ThroughputStats;
use guestos::{GuestOs, Platform, SpawnSpec, TaskAction, TaskId, TaskState, Workload};
use simcore::SimRng;
use std::cell::RefCell;
use std::rc::Rc;

/// Senders per group.
const SENDERS: usize = 2;
/// Receivers per group.
const RECEIVERS: usize = 2;
/// Work per send (capacity-ns): 20 µs.
const SEND_WORK: f64 = 1024.0 * 20_000.0;
/// Work per receive (capacity-ns): 20 µs.
const RECV_WORK: f64 = 1024.0 * 20_000.0;

/// Hackbench-style configuration.
#[derive(Debug, Clone)]
pub struct MsgPairsCfg {
    /// Number of groups; each group has its own senders/receivers and its
    /// own communication-group tag.
    pub groups: usize,
    /// Messages each sender sends in total.
    pub messages_per_sender: u64,
    /// Base communication-group id (groups use base, base+1, …).
    pub comm_group_base: u32,
}

impl MsgPairsCfg {
    /// Standard hackbench shape: `groups` groups of two senders and two
    /// receivers, each sender sending `messages`.
    pub fn new(groups: usize, messages: u64) -> Self {
        Self {
            groups,
            messages_per_sender: messages,
            comm_group_base: 100,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Role {
    Sender { group: usize, sent: u64 },
    Receiver { group: usize },
}

/// Socket-buffer window: a sender blocks after this many unconsumed
/// messages until the receiver drains them (flow control — this is what
/// makes hackbench's wakeups bidirectional).
const SEND_WINDOW: u64 = 32;

/// The message-passing workload.
pub struct MsgPairs {
    cfg: MsgPairsCfg,
    rng: SimRng,
    stats: Rc<RefCell<ThroughputStats>>,
    tasks: Vec<TaskId>,
    roles: Vec<Role>,
    /// Pending messages per receiver (values = sender indices).
    inbox: Vec<std::collections::VecDeque<usize>>,
    /// Unconsumed messages in flight per sender.
    inflight: Vec<u64>,
    /// Senders blocked on a full window.
    send_blocked: Vec<bool>,
    /// Live senders per group.
    live_senders: Vec<usize>,
    /// Receiver indices per group, in index order (built by `start`).
    receivers: Vec<Vec<usize>>,
    finished: bool,
}

impl MsgPairs {
    /// Creates the workload and its statistics handle.
    pub fn new(cfg: MsgPairsCfg, rng: SimRng) -> (Self, Rc<RefCell<ThroughputStats>>) {
        let stats = ThroughputStats::handle();
        let live = vec![SENDERS; cfg.groups];
        (
            Self {
                cfg,
                rng,
                stats: Rc::clone(&stats),
                tasks: Vec::new(),
                roles: Vec::new(),
                inbox: Vec::new(),
                inflight: Vec::new(),
                send_blocked: Vec::new(),
                live_senders: live,
                receivers: Vec::new(),
                finished: false,
            },
            stats,
        )
    }

    fn index(&self, t: TaskId) -> usize {
        self.tasks.iter().position(|&x| x == t).expect("own task")
    }
}

impl Workload for MsgPairs {
    fn start(&mut self, guest: &mut GuestOs, plat: &mut dyn Platform) {
        let nr = guest.kern.nr_vcpus();
        for group in 0..self.cfg.groups {
            let tag = self.cfg.comm_group_base + group as u32;
            for _ in 0..SENDERS {
                let t = guest.spawn(plat, SpawnSpec::normal(nr).comm_group(tag));
                self.tasks.push(t);
                self.roles.push(Role::Sender { group, sent: 0 });
                self.inbox.push(std::collections::VecDeque::new());
                self.inflight.push(0);
                self.send_blocked.push(false);
                guest.wake_task(plat, t, None);
            }
            self.receivers.push(Vec::with_capacity(RECEIVERS));
            for _ in 0..RECEIVERS {
                let t = guest.spawn(plat, SpawnSpec::normal(nr).comm_group(tag));
                self.receivers[group].push(self.tasks.len());
                self.tasks.push(t);
                self.roles.push(Role::Receiver { group });
                self.inbox.push(std::collections::VecDeque::new());
                self.inflight.push(0);
                self.send_blocked.push(false);
                guest.wake_task(plat, t, None);
            }
        }
    }

    fn on_timer(&mut self, _g: &mut GuestOs, _p: &mut dyn Platform, _token: u64) {}

    fn next_action(
        &mut self,
        guest: &mut GuestOs,
        plat: &mut dyn Platform,
        t: TaskId,
    ) -> TaskAction {
        let i = self.index(t);
        match self.roles[i] {
            Role::Sender { group, sent } => {
                if sent > 0 && !self.send_blocked[i] {
                    // The previous send burst completed: deliver the message
                    // to a random receiver of the group.
                    let receivers = &self.receivers[group];
                    let r = receivers[self.rng.index(receivers.len())];
                    self.inbox[r].push_back(i);
                    self.inflight[i] += 1;
                    if matches!(guest.kern.task(self.tasks[r]).state, TaskState::Blocked) {
                        let waker = guest.kern.task(t).state.vcpu();
                        guest.wake_task(plat, self.tasks[r], waker);
                    }
                }
                self.send_blocked[i] = false;
                if self.inflight[i] >= SEND_WINDOW {
                    // Socket buffer full: block until the receiver drains
                    // (it wakes us — flow control).
                    self.send_blocked[i] = true;
                    return TaskAction::Block;
                }
                if sent >= self.cfg.messages_per_sender {
                    self.live_senders[group] -= 1;
                    if self.live_senders[group] == 0 {
                        // Wake blocked receivers so they can drain and exit.
                        for &r in &self.receivers[group] {
                            if matches!(guest.kern.task(self.tasks[r]).state, TaskState::Blocked) {
                                guest.wake_task(plat, self.tasks[r], None);
                            }
                        }
                    }
                    return TaskAction::Exit;
                }
                self.roles[i] = Role::Sender {
                    group,
                    sent: sent + 1,
                };
                TaskAction::Compute { work: SEND_WORK }
            }
            Role::Receiver { group } => {
                if let Some(sender) = self.inbox[i].pop_front() {
                    self.inflight[sender] = self.inflight[sender].saturating_sub(1);
                    // Window reopened: wake the blocked sender (the
                    // receiver is the waker — bidirectional affinity).
                    if self.send_blocked[sender]
                        && self.inflight[sender] < SEND_WINDOW / 2
                        && matches!(
                            guest.kern.task(self.tasks[sender]).state,
                            TaskState::Blocked
                        )
                    {
                        let waker = guest.kern.task(t).state.vcpu();
                        guest.wake_task(plat, self.tasks[sender], waker);
                    }
                    let mut s = self.stats.borrow_mut();
                    s.completed += 1;
                    s.work_done += RECV_WORK;
                    let total =
                        self.cfg.groups as u64 * SENDERS as u64 * self.cfg.messages_per_sender;
                    if s.completed >= total {
                        s.finished_at = Some(plat.now());
                        drop(s);
                        self.finished = true;
                    }
                    return TaskAction::Compute { work: RECV_WORK };
                }
                if self.live_senders[group] == 0 {
                    TaskAction::Exit
                } else {
                    TaskAction::Block
                }
            }
        }
    }

    fn finished(&self) -> bool {
        self.finished
    }

    fn owns_task(&self, t: TaskId) -> bool {
        self.tasks.contains(&t)
    }

    fn label(&self) -> &str {
        "msg-pairs"
    }
}
