//! Independent output oracle: native Rust kernels for the seven corpus
//! templates.
//!
//! Each kernel is the template's WHILE loop written by hand over plain
//! slices, with wrapping `i64` arithmetic and the service builtin
//! `g(x) = x + 7` inlined. Exit tests run at the head of an iteration,
//! before its body (the interpreter's canonical test-then-work form). The
//! kernels share no code with `wlp-ir`, so a digest they agree on is
//! evidence, not a tautology. They are also the native baseline that
//! `interp.native_ratio.<t>` divides by.

use crate::gen::Template;
use std::collections::BTreeMap;

/// Named arrays, ordered by name like the service's digest map.
pub type Arrays = BTreeMap<String, Vec<i64>>;

/// What a correct `run` response must report for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Loop bodies executed.
    pub iterations: u64,
    /// FNV-1a digest of every array's final contents, by name.
    pub digests: Vec<(String, u64)>,
}

/// 64-bit FNV-1a over the little-endian bytes of `data` (the protocol's
/// array digest).
pub fn digest(data: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in data {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs template `t` with variant constant `k` natively on `arrays`
/// (updated in place) and returns the number of loop bodies executed.
///
/// # Panics
/// When an array or scalar the template needs is missing; the generator
/// always supplies them.
pub fn execute(t: Template, k: i64, arrays: &mut Arrays, scalars: &[(String, i64)]) -> u64 {
    let scalar = |name: &str| {
        scalars
            .iter()
            .find(|(s, _)| s == name)
            .map(|&(_, v)| v)
            .expect("generator supplies every scalar")
    };
    let n = usize::try_from(scalar("n")).expect("n is non-negative");
    let mut take = |name: &str| arrays.remove(name).expect("generator supplies every array");
    let mut back = Vec::new();
    let iterations = match t {
        Template::Swap => {
            let mut a = take("A");
            let it = swap(&mut a, n);
            back.push(("A", a));
            it
        }
        Template::GatherScatter => {
            let (mut a, mut b, w, idx) = (take("A"), take("B"), take("w"), take("idx"));
            let it = gather_scatter(&mut a, &mut b, &w, &idx, n, k);
            back.extend([("A", a), ("B", b), ("w", w), ("idx", idx)]);
            it
        }
        Template::CountedFill => {
            let (mut a, w) = (take("A"), take("w"));
            let it = counted_fill(&mut a, &w, n);
            back.extend([("A", a), ("w", w)]);
            it
        }
        Template::GuardedUpdate => {
            let mut a = take("A");
            let it = guarded_update(&mut a, n, scalar("limit"), k);
            back.push(("A", a));
            it
        }
        Template::PartialSums => {
            let mut a = take("A");
            let it = partial_sums(&mut a, n, k);
            back.push(("A", a));
            it
        }
        Template::Wavefront => {
            let (mut b, mut c, w) = (take("B"), take("C"), take("w"));
            let it = wavefront(&mut b, &mut c, &w, n, k);
            back.extend([("B", b), ("C", c), ("w", w)]);
            it
        }
        Template::McsparsePair => {
            let (mut a, mut b, mut c, w) = (take("A"), take("B"), take("C"), take("w"));
            let it = mcsparse_pair(&mut a, &mut b, &mut c, &w, n, k);
            back.extend([("A", a), ("B", b), ("C", c), ("w", w)]);
            it
        }
    };
    for (name, data) in back {
        arrays.insert(name.to_string(), data);
    }
    iterations as u64
}

/// The digests and iteration count a correct service returns for one
/// request.
pub fn expected(
    t: Template,
    k: i64,
    arrays: &[(String, Vec<i64>)],
    scalars: &[(String, i64)],
) -> Expected {
    let mut state: Arrays = arrays.iter().cloned().collect();
    let iterations = execute(t, k, &mut state, scalars);
    Expected {
        iterations,
        digests: state
            .iter()
            .map(|(name, data)| (name.clone(), digest(data)))
            .collect(),
    }
}

fn swap(a: &mut [i64], n: usize) -> usize {
    for i in 1..n {
        a.swap(2 * i, 2 * i - 1);
    }
    n.saturating_sub(1)
}

fn gather_scatter(a: &mut [i64], b: &mut [i64], w: &[i64], idx: &[i64], n: usize, k: i64) -> usize {
    for i in 0..n {
        b[i] = k.wrapping_mul(w[i]);
        let j = usize::try_from(idx[i]).expect("idx entries are in bounds");
        a[j] = a[j].wrapping_add(b[i]);
    }
    n
}

fn counted_fill(a: &mut [i64], w: &[i64], n: usize) -> usize {
    a[..n].copy_from_slice(&w[..n]);
    n
}

fn guarded_update(a: &mut [i64], n: usize, limit: i64, k: i64) -> usize {
    for (i, x) in a[..n].iter_mut().enumerate() {
        if *x > limit {
            return i;
        }
        *x = x.wrapping_add(7).wrapping_add(k);
    }
    n
}

fn partial_sums(a: &mut [i64], n: usize, k: i64) -> usize {
    for i in 1..n {
        a[i] = a[i].wrapping_add(a[i - 1]).wrapping_add(k);
    }
    n.saturating_sub(1)
}

fn wavefront(b: &mut [i64], c: &mut [i64], w: &[i64], n: usize, k: i64) -> usize {
    for i in 1..n {
        b[i] = b[i - 1].wrapping_add(w[i]);
        c[i] = b[i - 1].wrapping_add(k);
    }
    n.saturating_sub(1)
}

fn mcsparse_pair(
    a: &mut [i64],
    b: &mut [i64],
    c: &mut [i64],
    w: &[i64],
    n: usize,
    k: i64,
) -> usize {
    for i in 1..n {
        a[i] = a[i - 1].wrapping_add(w[i]);
        b[i] = b[i - 1].wrapping_mul(k);
        c[i] = a[i - 1].wrapping_add(w[i]);
    }
    n.saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_service_digest() {
        let data = [1i64, -2, 3, i64::MAX];
        let mut bytes = Vec::new();
        for x in data {
            bytes.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(digest(&data), wlp_serve::fnv1a64(&bytes));
    }

    #[test]
    fn guarded_update_tests_before_the_body() {
        let mut a = vec![1, 2, 50, 3];
        assert_eq!(guarded_update(&mut a, 4, 10, 0), 2);
        assert_eq!(a, vec![8, 9, 50, 3]);
    }
}
