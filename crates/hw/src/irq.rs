//! Interrupt controller with per-line masking.
//!
//! §4.2: "interrupts could also be used as a channel, if the Trojan
//! triggers an I/O such that its completion interrupt fires during Lo's
//! execution. We prevent this by partitioning interrupts (other than the
//! preemption timer) between domains, and keep all interrupts masked that
//! are not associated with the presently-executing domain."
//!
//! The controller models up to 64 lines. Line 0 is by convention the
//! preemption timer and is never maskable by the partitioning policy.
//! Devices arm completion interrupts at absolute times; the kernel's
//! machine loop polls [`IrqController::highest_pending`] each step, and
//! idles no further in one go than [`IrqController::next_fire`].

use crate::types::Cycles;

/// The preemption-timer line (always enabled; owned by the kernel).
pub const TIMER_LINE: u8 = 0;

/// Maximum number of interrupt lines.
pub const NUM_LINES: u8 = 64;

/// A pending-interrupt delivery decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingIrq {
    /// Which line fired.
    pub line: u8,
}

/// An armed one-shot device timer: `line` becomes pending once the
/// observing core's clock reaches `fire_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ArmedTimer {
    line: u8,
    fire_at: Cycles,
}

/// A 64-line interrupt controller with enable masking and one-shot
/// device timers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IrqController {
    /// Level-pending bits.
    pending: u64,
    /// Enable mask; a pending-but-masked line stays latched.
    enabled: u64,
    /// Armed one-shot timers, unordered (the set is tiny).
    armed: Vec<ArmedTimer>,
}

impl IrqController {
    /// A controller with only the preemption timer enabled.
    pub fn new() -> Self {
        IrqController {
            pending: 0,
            enabled: 1 << TIMER_LINE,
            armed: Vec::new(),
        }
    }

    /// Latch `line` pending immediately.
    ///
    /// # Panics
    /// Panics if `line >= NUM_LINES`.
    pub fn raise(&mut self, line: u8) {
        assert!(line < NUM_LINES, "irq line {line} out of range");
        self.pending |= 1 << line;
    }

    /// Arm a one-shot timer: `line` is raised when [`Self::tick`] observes
    /// a clock at or past `fire_at`.
    pub fn arm_timer(&mut self, line: u8, fire_at: Cycles) {
        assert!(line < NUM_LINES, "irq line {line} out of range");
        self.armed.push(ArmedTimer { line, fire_at });
    }

    /// Move due timers to pending, given the current clock.
    pub fn tick(&mut self, now: Cycles) {
        let mut i = 0;
        while i < self.armed.len() {
            if self.armed[i].fire_at.0 <= now.0 {
                self.pending |= 1 << self.armed[i].line;
                self.armed.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// The earliest `fire_at` among the armed timers: the first clock at
    /// which [`Self::tick`] would change anything. `None` when nothing is
    /// armed. The kernel's idle fast-forward stops its run of ticks here.
    pub fn next_fire(&self) -> Option<Cycles> {
        self.armed.iter().map(|t| t.fire_at).min()
    }

    /// Replace the enable mask. The timer line is forced on: the
    /// preemption timer is the kernel's own and may never be masked,
    /// otherwise a domain could overrun its slice (availability).
    pub fn set_enabled_mask(&mut self, mask: u64) {
        self.enabled = mask | (1 << TIMER_LINE);
    }

    /// Is `line` currently latched pending (masked or not)?
    pub fn is_pending(&self, line: u8) -> bool {
        self.pending & (1 << line) != 0
    }

    /// Highest-priority pending *and enabled* line (lowest number wins,
    /// so the preemption timer outranks all devices).
    pub fn highest_pending(&self) -> Option<PendingIrq> {
        let live = self.pending & self.enabled;
        if live == 0 {
            None
        } else {
            Some(PendingIrq {
                line: live.trailing_zeros() as u8,
            })
        }
    }

    /// Acknowledge (clear) a pending line.
    pub fn ack(&mut self, line: u8) {
        self.pending &= !(1 << line);
    }

    /// Clear all pending device lines and disarm device timers, keeping
    /// the timer line's state. Used when a domain is torn down.
    pub fn clear_devices(&mut self) {
        self.pending &= 1 << TIMER_LINE;
        self.armed.clear();
    }

    /// Number of armed one-shot timers (for inspection in tests).
    pub fn armed_count(&self) -> usize {
        self.armed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_and_ack() {
        let mut c = IrqController::new();
        assert_eq!(c.highest_pending(), None);
        c.set_enabled_mask(u64::MAX);
        c.raise(5);
        assert_eq!(c.highest_pending(), Some(PendingIrq { line: 5 }));
        c.ack(5);
        assert_eq!(c.highest_pending(), None);
    }

    #[test]
    fn masked_irq_stays_latched() {
        let mut c = IrqController::new();
        c.set_enabled_mask(1 << TIMER_LINE); // only timer enabled
        c.raise(9);
        assert_eq!(c.highest_pending(), None, "masked: not deliverable");
        assert!(c.is_pending(9), "but still latched");
        c.set_enabled_mask(1 << 9);
        assert_eq!(
            c.highest_pending(),
            Some(PendingIrq { line: 9 }),
            "unmasking delivers it"
        );
    }

    #[test]
    fn timer_line_cannot_be_masked() {
        let mut c = IrqController::new();
        c.set_enabled_mask(0);
        c.raise(TIMER_LINE);
        assert_eq!(c.highest_pending(), Some(PendingIrq { line: TIMER_LINE }));
    }

    #[test]
    fn timer_outranks_devices() {
        let mut c = IrqController::new();
        c.set_enabled_mask(u64::MAX);
        c.raise(3);
        c.raise(TIMER_LINE);
        assert_eq!(c.highest_pending(), Some(PendingIrq { line: TIMER_LINE }));
    }

    #[test]
    fn armed_timer_fires_at_deadline() {
        let mut c = IrqController::new();
        c.set_enabled_mask(u64::MAX);
        c.arm_timer(4, Cycles(100));
        c.tick(Cycles(99));
        assert_eq!(c.highest_pending(), None);
        c.tick(Cycles(100));
        assert_eq!(c.highest_pending(), Some(PendingIrq { line: 4 }));
        assert_eq!(c.armed_count(), 0);
    }

    #[test]
    fn next_fire_is_the_earliest_armed_timer() {
        let mut c = IrqController::new();
        assert_eq!(c.next_fire(), None, "nothing armed");
        c.arm_timer(4, Cycles(300));
        c.arm_timer(6, Cycles(100));
        c.arm_timer(9, Cycles(200));
        assert_eq!(c.next_fire(), Some(Cycles(100)));
        c.tick(Cycles(99));
        assert_eq!(c.next_fire(), Some(Cycles(100)), "nothing due yet");
        c.tick(Cycles(150));
        assert!(c.is_pending(6));
        assert_eq!(c.next_fire(), Some(Cycles(200)), "the fired timer left");
        c.tick(Cycles(300));
        assert_eq!(c.next_fire(), None);
    }

    #[test]
    fn clear_devices_preserves_timer() {
        let mut c = IrqController::new();
        c.set_enabled_mask(u64::MAX);
        c.raise(TIMER_LINE);
        c.raise(8);
        c.arm_timer(9, Cycles(50));
        c.clear_devices();
        assert!(c.is_pending(TIMER_LINE));
        assert!(!c.is_pending(8));
        assert_eq!(c.armed_count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn line_bounds_checked() {
        IrqController::new().raise(64);
    }
}
