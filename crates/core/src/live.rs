//! Live-mode per-frame repair policy.
//!
//! Chunked VOD hides loss behind a buffer; live mode has only the jitter
//! buffer's playout delay, so every impaired frame forces a choice among
//! three repairs with very different price tags:
//!
//! * **Conceal** — run the neural recovery pipeline on the client.
//!   "Free" in network terms (no server involvement), costs one
//!   inference pass, and its quality decays with the concealment chain
//!   depth (each concealed frame warps from an already-synthesized one).
//! * **NACK** — ask the server to retransmit the missing packets. Costs
//!   one RTT of the deadline budget plus an uplink draw that can eat the
//!   request itself, but yields the *real* frame and resets the chain.
//! * **FIR** — give up on the current GOP and ask for a fresh keyframe.
//!   Costs an I-frame of bitrate (which inflates the next frames'
//!   transfer time) and a server grant that may be rate-limited, but it
//!   is the only repair that clears decoder desync.
//!
//! BONES (PAPERS.md) frames enhancement-vs-transport spend as one
//! budgeted scheduling decision; [`choose_repair`] is that decision at
//! frame granularity. When no repair fits the budget the policy returns
//! `None` and the caller falls through to the PR-1 degradation ladder
//! (warp-only → freeze) instead of stalling.
//!
//! The static single-repair policies ([`LivePolicy::AlwaysConceal`],
//! [`AlwaysNack`](LivePolicy::AlwaysNack),
//! [`AlwaysFir`](LivePolicy::AlwaysFir)) exist as baselines: each is the
//! best answer to *one* impairment regime and loses to the budget policy
//! across a chaos matrix (asserted in `nerve-sim`'s tests).

/// The repair a frame may request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairAction {
    /// Client-side neural concealment (recover from the previous frame).
    Conceal,
    /// Selective retransmission of the missing data.
    Nack,
    /// Full-intra request: force the server to restart the GOP.
    Fir,
}

/// Which policy arbitrates repairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LivePolicy {
    /// Deadline-budgeted choice among all three repairs (the plane's
    /// default, and the one the acceptance tests pit against the rest).
    Budget,
    /// Always conceal; never touches the network. Wins when the uplink is
    /// dead, loses when chains grow deep or the decoder desyncs.
    AlwaysConceal,
    /// Always NACK. Wins on short-RTT clean uplinks, loses when the
    /// playout delay is tighter than an RTT or the uplink collapses.
    AlwaysNack,
    /// Always FIR. Immune to chain decay, but rate-limited server-side
    /// and every grant taxes the following frames with I-frame bytes.
    AlwaysFir,
}

/// Price list for the three repairs, in seconds of deadline budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairCosts {
    /// One client-side concealment pass.
    pub conceal_secs: f64,
    /// One NACK round trip (uplink request + server serve + downlink
    /// retransmit), excluding retries.
    pub nack_secs: f64,
    /// Time from a granted FIR to a decodable keyframe on the client
    /// (encode + I-frame transfer).
    pub fir_secs: f64,
}

/// Concealment chains longer than this are quality-bankrupt: the budget
/// policy stops concealing and escalates.
pub const MAX_CONCEAL_CHAIN: u32 = 6;
/// Chain depth at which the budget policy starts preferring a NACK over
/// another concealment (paying an RTT to reset the chain).
const NACK_CHAIN_THRESHOLD: u32 = 2;
/// Chain depth at which the budget policy escalates straight to FIR even
/// if a NACK would fit (deep chains mean retransmits alone will not
/// restore reference quality).
const FIR_CHAIN_THRESHOLD: u32 = 8;
/// Consecutive failed NACKs after which the budget policy stops asking
/// (the uplink is presumed down) and falls back to concealment.
const NACK_GIVEUP_STREAK: u32 = 3;

/// Per-frame facts the policy decides from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairContext {
    /// Seconds between loss detection and the frame's playout deadline.
    pub budget_secs: f64,
    /// Consecutive frames already repaired by concealment (0 = the
    /// reference is a real decoded frame).
    pub conceal_chain: u32,
    /// The decoder has lost sync with the GOP (a reference it needs was
    /// never reconstructed): only a keyframe restores service.
    pub desynced: bool,
    /// Consecutive NACK loops that ended unrepaired.
    pub nack_fail_streak: u32,
}

/// Pick the repair for one impaired frame, or `None` to hand the frame
/// to the degradation ladder (warp-only / freeze — never stall).
pub fn choose_repair(
    policy: LivePolicy,
    ctx: &RepairContext,
    costs: &RepairCosts,
) -> Option<RepairAction> {
    let fits = |c: f64| c <= ctx.budget_secs;
    match policy {
        LivePolicy::AlwaysConceal => fits(costs.conceal_secs).then_some(RepairAction::Conceal),
        LivePolicy::AlwaysNack => fits(costs.nack_secs).then_some(RepairAction::Nack),
        LivePolicy::AlwaysFir => Some(RepairAction::Fir),
        LivePolicy::Budget => {
            // Desync is absolute: nothing short of a keyframe produces a
            // decodable picture, so FIR regardless of budget (the frame
            // itself freezes either way; the FIR rescues its successors).
            if ctx.desynced {
                return Some(RepairAction::Fir);
            }
            // A chain this deep has no reference quality left for a
            // retransmit to anchor to — restart the GOP.
            if ctx.conceal_chain >= FIR_CHAIN_THRESHOLD {
                return Some(RepairAction::Fir);
            }
            // Shallow chain: concealment is near-lossless and free.
            if ctx.conceal_chain < NACK_CHAIN_THRESHOLD && fits(costs.conceal_secs) {
                return Some(RepairAction::Conceal);
            }
            // Mid-depth chain: pay the RTT to reset it — unless the
            // uplink has been eating our NACKs, in which case stop
            // throwing good budget after bad.
            if fits(costs.nack_secs) && ctx.nack_fail_streak < NACK_GIVEUP_STREAK {
                return Some(RepairAction::Nack);
            }
            // NACK unaffordable or hopeless: keep concealing while the
            // chain stays within quality bankruptcy.
            if ctx.conceal_chain < MAX_CONCEAL_CHAIN && fits(costs.conceal_secs) {
                return Some(RepairAction::Conceal);
            }
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> RepairCosts {
        RepairCosts {
            conceal_secs: 0.010,
            nack_secs: 0.060,
            fir_secs: 0.120,
        }
    }

    fn ctx(budget: f64, chain: u32) -> RepairContext {
        RepairContext {
            budget_secs: budget,
            conceal_chain: chain,
            desynced: false,
            nack_fail_streak: 0,
        }
    }

    #[test]
    fn shallow_chain_with_budget_conceals() {
        let a = choose_repair(LivePolicy::Budget, &ctx(0.2, 0), &costs());
        assert_eq!(a, Some(RepairAction::Conceal));
    }

    #[test]
    fn mid_chain_pays_an_rtt_to_reset() {
        let a = choose_repair(LivePolicy::Budget, &ctx(0.2, 3), &costs());
        assert_eq!(a, Some(RepairAction::Nack));
    }

    #[test]
    fn tight_budget_mid_chain_keeps_concealing() {
        // NACK does not fit 30 ms; concealment does.
        let a = choose_repair(LivePolicy::Budget, &ctx(0.030, 3), &costs());
        assert_eq!(a, Some(RepairAction::Conceal));
    }

    #[test]
    fn desync_always_escalates_to_fir() {
        let mut c = ctx(0.005, 0);
        c.desynced = true;
        let a = choose_repair(LivePolicy::Budget, &c, &costs());
        assert_eq!(a, Some(RepairAction::Fir));
    }

    #[test]
    fn deep_chain_escalates_to_fir_even_when_nack_fits() {
        let a = choose_repair(LivePolicy::Budget, &ctx(0.3, 8), &costs());
        assert_eq!(a, Some(RepairAction::Fir));
    }

    #[test]
    fn failed_nack_streak_falls_back_to_concealment() {
        let mut c = ctx(0.2, 3);
        c.nack_fail_streak = 3;
        let a = choose_repair(LivePolicy::Budget, &c, &costs());
        assert_eq!(a, Some(RepairAction::Conceal));
    }

    #[test]
    fn bankrupt_chain_and_no_network_budget_degrades() {
        let mut c = ctx(0.001, 6);
        c.nack_fail_streak = 3;
        // Even concealment (10 ms) does not fit 1 ms.
        let a = choose_repair(LivePolicy::Budget, &c, &costs());
        assert_eq!(a, None, "ladder takes over, not a stall");
    }

    #[test]
    fn static_policies_do_what_the_name_says() {
        let c = ctx(0.2, 4);
        assert_eq!(
            choose_repair(LivePolicy::AlwaysConceal, &c, &costs()),
            Some(RepairAction::Conceal)
        );
        assert_eq!(
            choose_repair(LivePolicy::AlwaysNack, &c, &costs()),
            Some(RepairAction::Nack)
        );
        assert_eq!(
            choose_repair(LivePolicy::AlwaysFir, &c, &costs()),
            Some(RepairAction::Fir)
        );
        // And their failure modes: no budget → conceal/nack degrade…
        let tight = ctx(0.0001, 4);
        assert_eq!(
            choose_repair(LivePolicy::AlwaysConceal, &tight, &costs()),
            None
        );
        assert_eq!(
            choose_repair(LivePolicy::AlwaysNack, &tight, &costs()),
            None
        );
        // …while FIR is a request, not a compute spend: always issuable.
        assert_eq!(
            choose_repair(LivePolicy::AlwaysFir, &tight, &costs()),
            Some(RepairAction::Fir)
        );
    }
}
