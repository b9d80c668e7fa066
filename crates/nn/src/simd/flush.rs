//! The floating-point mode the kernels run under: subnormals flushed to zero.
//! See "Numeric contracts" in [`super`]; the control-register access below is
//! the crate's only inline assembly.

/// Per-architecture access to the FP control register. `write` only ever gets
/// a word `read` returned with at most the `FLUSH` bits changed, so no
/// reserved bit is set and only this thread's subnormal handling changes. The
/// writing blocks are deliberately not `nomem`/`readonly`: as compiler-level
/// memory clobbers they keep the kernels' loads and stores — and the
/// arithmetic between them — on the side of the mode switch the source puts
/// them on.
#[cfg(target_arch = "x86_64")]
mod ctrl {
    pub(super) type Word = u32;
    /// MXCSR flush-to-zero (bit 15: subnormal results become zero) and
    /// denormals-are-zero (bit 6: subnormal operands read as zero).
    pub(super) const FLUSH: Word = (1 << 15) | (1 << 6);
    pub(super) const MODE: &str = "ftz+daz";

    pub(super) fn read() -> Word {
        let mut word: Word = 0;
        // SAFETY: stmxcsr stores the 32-bit MXCSR into the caller-owned
        // `word` and touches nothing else.
        unsafe { core::arch::asm!("stmxcsr [{0}]", in(reg) &mut word, options(nostack)) };
        word
    }

    pub(super) fn write(word: Word) {
        // SAFETY: ldmxcsr loads MXCSR from the caller-owned `word`, which
        // holds a valid control word (see the module comment).
        unsafe { core::arch::asm!("ldmxcsr [{0}]", in(reg) &word, options(nostack)) };
    }
}

#[cfg(target_arch = "aarch64")]
mod ctrl {
    pub(super) type Word = u64;
    /// FPCR.FZ (bit 24): subnormal operands and results flush to zero.
    pub(super) const FLUSH: Word = 1 << 24;
    pub(super) const MODE: &str = "fz";

    pub(super) fn read() -> Word {
        let word: Word;
        // SAFETY: reads this thread's FPCR into a register; no memory access.
        unsafe { core::arch::asm!("mrs {0}, fpcr", out(reg) word, options(nostack)) };
        word
    }

    pub(super) fn write(word: Word) {
        // SAFETY: writes this thread's FPCR with a valid control word (see
        // the comment on the x86_64 module).
        unsafe { core::arch::asm!("msr fpcr, {0}", in(reg) word, options(nostack)) };
    }
}

/// No known control bit: the guard is a no-op and the kernels run in IEEE
/// gradual-underflow mode.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod ctrl {
    pub(super) type Word = u32;
    pub(super) const FLUSH: Word = 0;
    pub(super) const MODE: &str = "ieee";

    pub(super) fn read() -> Word {
        0
    }

    pub(super) fn write(_: Word) {}
}

/// Flushes subnormals on the current thread for as long as it lives, then
/// puts the caller's control word back. Nests freely: an inner guard finds the
/// mode already set and touches nothing.
pub(crate) struct FlushGuard {
    saved: ctrl::Word,
}

impl FlushGuard {
    #[inline]
    pub(crate) fn enter() -> Self {
        let saved = ctrl::read();
        if saved & ctrl::FLUSH != ctrl::FLUSH {
            ctrl::write(saved | ctrl::FLUSH);
        }
        Self { saved }
    }
}

impl Drop for FlushGuard {
    #[inline]
    fn drop(&mut self) {
        if self.saved & ctrl::FLUSH != ctrl::FLUSH {
            ctrl::write(self.saved);
        }
    }
}

/// The floating-point mode the kernels run in on this machine, read back from
/// the control register inside a guard: `"ftz+daz"` (x86_64), `"fz"`
/// (aarch64) or `"ieee"` where no control bit is known.
pub fn fp_mode() -> &'static str {
    let _flush = FlushGuard::enter();
    if ctrl::FLUSH != 0 && ctrl::read() & ctrl::FLUSH == ctrl::FLUSH {
        ctrl::MODE
    } else {
        "ieee"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// A product that is subnormal in IEEE mode and zero when flushed.
    fn tiny_product() -> f32 {
        black_box(black_box(1.0e-20f32) * black_box(1.0e-20f32))
    }

    #[test]
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn guard_flushes_inside_and_restores_outside() {
        // The test harness gives each test its own thread, in the default
        // (gradual underflow) mode.
        assert!(tiny_product() > 0.0);
        {
            let _outer = FlushGuard::enter();
            assert_eq!(tiny_product(), 0.0);
            assert_eq!(black_box(f32::from_bits(1)) * black_box(2.0f32), 0.0);
            {
                let _inner = FlushGuard::enter();
                assert_eq!(tiny_product(), 0.0);
            }
            assert_eq!(tiny_product(), 0.0, "the inner guard must not unset");
        }
        assert!(tiny_product() > 0.0, "the caller's mode is restored");
        assert_ne!(fp_mode(), "ieee");
        assert!(tiny_product() > 0.0);
    }
}
