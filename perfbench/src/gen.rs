//! Seeded input generation. Every op and every arrival instant is a pure
//! function of `(seed, stream, step)` through SplitMix64, so a run's
//! inputs repeat exactly for a given `--seed` and the program under test
//! receives only the generated ops.

/// Stream ids: one per client session, plus one arrival stream per wire
/// connection so the op mix and the schedule draw independent numbers.
pub const WIRE_VIP: u64 = 0;
pub const WIRE_GUEST: u64 = 1;
pub const INPROC_VIP: u64 = 2;
pub const INPROC_GUEST: u64 = 3;
const ARRIVALS: u64 = 0x100;

/// Keys preloaded for the wire workloads; the VIP connection owns the
/// first `WIRE_VIP_KEYS`, the guest connection the rest.
pub const WIRE_KEYS: u32 = 10_000;
pub const WIRE_VIP_KEYS: u32 = 1_000;

pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The random word for `step` of `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, step: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream.wrapping_mul(0x1_0000_0001) ^ splitmix64(step)))
}

/// A uniform float in `[0, 1)` from the top 53 bits of a word.
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// A generated operation over a session's key table (indices, not
/// strings: the workload maps them to keys when it builds a request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GenOp {
    Get(u32),
    Put(u32, u64),
    /// Compare-and-set; `hit` asks the session to expect the value it
    /// last saw, a miss expects a value the key never holds.
    Cas {
        key: u32,
        new: u64,
        hit: bool,
    },
}

impl GenOp {
    pub fn key(self) -> u32 {
        match self {
            GenOp::Get(k) | GenOp::Put(k, _) | GenOp::Cas { key: k, .. } => k,
        }
    }
}

/// The value a session writes at `step`: unique per (stream, step) and
/// disjoint from every preload value, so a read names its writer.
pub fn written_value(stream: u64, step: u64) -> u64 {
    ((stream + 1) << 48) | step
}

/// The preload value of global key index `k`.
pub fn preload_value(k: u32) -> u64 {
    (1 << 62) | u64::from(k)
}

/// Wire mix: 80% Get / 20% Put, uniform over the connection's key range.
pub fn wire_op(seed: u64, stream: u64, step: u64) -> GenOp {
    let r = draw(seed, stream, step);
    let keys = if stream == WIRE_VIP { WIRE_VIP_KEYS } else { WIRE_KEYS - WIRE_VIP_KEYS };
    let key = ((r >> 8) % u64::from(keys)) as u32;
    if r % 100 < 80 {
        GenOp::Get(key)
    } else {
        GenOp::Put(key, written_value(stream, step))
    }
}

/// In-process VIP session: `Sync` Puts uniform over its private keys.
pub fn vip_put(seed: u64, keys: u32, step: u64) -> GenOp {
    let r = draw(seed, INPROC_VIP, step);
    GenOp::Put(((r >> 8) % u64::from(keys)) as u32, written_value(INPROC_VIP, step))
}

/// In-process guest session: 50% Get / 30% Put / 20% Cas (3 in 4 CAS
/// expect the current value), keys skewed toward index 0 (`u^3`).
pub fn guest_op(seed: u64, keys: u32, step: u64) -> GenOp {
    let r = draw(seed, INPROC_GUEST, step);
    let u = unit(splitmix64(r));
    let key = ((f64::from(keys) * u * u * u) as u32).min(keys - 1);
    let value = written_value(INPROC_GUEST, step);
    match r % 10 {
        0..=4 => GenOp::Get(key),
        5..=7 => GenOp::Put(key, value),
        _ => GenOp::Cas { key, new: value, hit: !(r >> 4).is_multiple_of(4) },
    }
}

/// The gap before arrival `step` of a Poisson stream at `rate` per
/// second, in nanoseconds.
pub fn arrival_gap_ns(seed: u64, stream: u64, step: u64, rate: f64) -> u64 {
    let u = unit(draw(seed, ARRIVALS + stream, step));
    (-(1.0 - u).ln() * 1e9 / rate) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<(GenOp, GenOp, GenOp, GenOp, u64)> {
        (0..2_000)
            .map(|s| {
                (
                    wire_op(seed, WIRE_VIP, s),
                    wire_op(seed, WIRE_GUEST, s),
                    vip_put(seed, 256, s),
                    guest_op(seed, 1_024, s),
                    arrival_gap_ns(seed, WIRE_GUEST, s, 50_000.0),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_differs() {
        assert_eq!(stream(7), stream(7));
        let (a, b) = (stream(7), stream(8));
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < a.len() / 100, "{same} of {} steps repeat across seeds", a.len());
    }

    #[test]
    fn mixes_and_rates_match_their_targets() {
        let n = 20_000u64;
        let puts = (0..n).filter(|&s| matches!(wire_op(1, WIRE_GUEST, s), GenOp::Put(..))).count();
        assert!((3_600..4_400).contains(&puts), "wire Put share off: {puts}/{n}");
        let cas = (0..n).filter(|&s| matches!(guest_op(1, 512, s), GenOp::Cas { .. })).count();
        assert!((3_600..4_400).contains(&cas), "guest Cas share off: {cas}/{n}");
        let mean = (0..n).map(|s| arrival_gap_ns(1, WIRE_VIP, s, 10_000.0)).sum::<u64>() / n;
        assert!((95_000..105_000).contains(&mean), "mean gap {mean} ns at 10k/s");
        let hot = (0..n).filter(|&s| guest_op(1, 1_000, s).key() < 100).count();
        assert!(hot > (n as usize) * 4 / 10, "guest keys must skew toward index 0: {hot}/{n}");
    }

    #[test]
    fn written_values_name_their_writer() {
        assert_ne!(written_value(WIRE_VIP, 5), written_value(WIRE_GUEST, 5));
        assert!(written_value(INPROC_GUEST, u64::from(u32::MAX)) < preload_value(0));
    }
}
