//! Linear-time suffix array construction (SA-IS).
//!
//! Nong, Zhang & Chan's induced-sorting algorithm. The index phase builds
//! the BWT from this suffix array — the plain-array stand-in for SGA's
//! ropebwt construction, with identical output.
//!
//! The input text must end with a unique smallest character (value 0, the
//! terminal sentinel); [`suffix_array`] enforces this.

/// Build the suffix array of `text`. The final character must be `0` and
/// `0` must not occur elsewhere.
///
/// # Panics
/// Panics if the sentinel convention is violated.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    assert!(text.last() == Some(&0), "text must end with the 0 sentinel");
    assert!(
        !text[..text.len() - 1].contains(&0),
        "0 may only appear as the final sentinel"
    );
    let text: Vec<u32> = text.iter().map(|&c| c as u32).collect();
    let mut sa = vec![0u32; text.len()];
    sais(&text, &mut sa, 256);
    sa
}

/// Recursive SA-IS over a u32 text with alphabet size `sigma`.
/// `text` must end in a unique smallest sentinel (0).
fn sais(text: &[u32], sa: &mut [u32], sigma: usize) {
    let n = text.len();
    if n == 0 {
        return;
    }
    if n == 1 {
        sa[0] = 0;
        return;
    }

    // Classify positions: S-type (true) or L-type (false).
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    // Bucket sizes.
    let mut bucket = vec![0u32; sigma];
    for &c in text {
        bucket[c as usize] += 1;
    }
    let bucket_heads = |bucket: &[u32]| {
        let mut heads = vec![0u32; sigma];
        let mut sum = 0;
        for c in 0..sigma {
            heads[c] = sum;
            sum += bucket[c];
        }
        heads
    };
    let bucket_tails = |bucket: &[u32]| {
        let mut tails = vec![0u32; sigma];
        let mut sum = 0;
        for c in 0..sigma {
            sum += bucket[c];
            tails[c] = sum;
        }
        tails
    };

    const EMPTY: u32 = u32::MAX;

    // Step 1: place LMS suffixes at their bucket tails (unordered), then
    // induce-sort.
    let induce = |sa: &mut [u32], lms_order: &[u32]| {
        sa.fill(EMPTY);
        let mut tails = bucket_tails(&bucket);
        for &p in lms_order.iter().rev() {
            let c = text[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }
        // Induce L-types left to right.
        let mut heads = bucket_heads(&bucket);
        for i in 0..n {
            let p = sa[i];
            if p != EMPTY && p > 0 && !is_s[(p - 1) as usize] {
                let c = text[(p - 1) as usize] as usize;
                sa[heads[c] as usize] = p - 1;
                heads[c] += 1;
            }
        }
        // Induce S-types right to left (this overwrites the provisional
        // LMS placements with their induced order).
        let mut tails = bucket_tails(&bucket);
        for i in (0..n).rev() {
            let p = sa[i];
            if p != EMPTY && p > 0 && is_s[(p - 1) as usize] {
                let c = text[(p - 1) as usize] as usize;
                tails[c] -= 1;
                sa[tails[c] as usize] = p - 1;
            }
        }
    };

    // First pass: LMS positions in text order.
    let lms_positions: Vec<u32> = (1..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
    induce(sa, &lms_positions);

    // Extract the LMS suffixes in their induced order and name the LMS
    // substrings.
    let sorted_lms: Vec<u32> = sa
        .iter()
        .copied()
        .filter(|&p| p != EMPTY && is_lms(p as usize))
        .collect();

    let lms_equal = |a: usize, b: usize| -> bool {
        // Compare LMS substrings starting at a and b.
        if text[a] != text[b] {
            return false;
        }
        let mut i = a + 1;
        let mut j = b + 1;
        loop {
            let a_end = is_lms(i);
            let b_end = is_lms(j);
            if a_end && b_end {
                return true;
            }
            if a_end != b_end || text[i] != text[j] {
                return false;
            }
            i += 1;
            j += 1;
        }
    };

    let mut names = vec![EMPTY; n];
    let mut name_count: u32 = 0;
    let mut prev: Option<u32> = None;
    for &p in &sorted_lms {
        if let Some(q) = prev {
            if !lms_equal(q as usize, p as usize) {
                name_count += 1;
            }
        } else {
            name_count = 1;
        }
        names[p as usize] = name_count - 1;
        prev = Some(p);
    }

    // Order the LMS suffixes.
    let lms_sorted_final: Vec<u32> = if (name_count as usize) < lms_positions.len() {
        // Names are not unique: recurse on the reduced string.
        let reduced: Vec<u32> = lms_positions.iter().map(|&p| names[p as usize]).collect();
        let mut reduced_sa = vec![0u32; reduced.len()];
        sais(&reduced, &mut reduced_sa, name_count as usize);
        reduced_sa
            .iter()
            .map(|&r| lms_positions[r as usize])
            .collect()
    } else {
        // All names unique: the induced order is already correct.
        sorted_lms
    };

    // Final induced sort with the correctly ordered LMS suffixes.
    induce(sa, &lms_sorted_final);
}

/// Naive O(n² log n) suffix sort — the test oracle.
pub fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;
    use stdx::check_cases;

    fn check(text: &[u8]) {
        assert_eq!(
            suffix_array(text),
            naive_suffix_array(text),
            "text {text:?}"
        );
    }

    #[test]
    fn classic_banana() {
        // "banana" over a small alphabet: b=2,a=1,n=3 + sentinel.
        check(&[2, 1, 3, 1, 3, 1, 0]);
    }

    #[test]
    fn trivial_inputs() {
        check(&[0]);
        check(&[1, 0]);
        check(&[1, 1, 1, 1, 0]);
        check(&[2, 1, 0]);
        check(&[1, 2, 0]);
    }

    #[test]
    fn repetitive_dna_like_input() {
        // ACGTACGTACGT... with separators (1 = separator, bases 2..=5).
        let mut text = Vec::new();
        for _ in 0..8 {
            text.extend_from_slice(&[2, 3, 4, 5, 2, 3, 4, 5]);
            text.push(1);
        }
        text.push(0);
        check(&text);
    }

    #[test]
    fn deep_recursion_case() {
        // Thue-Morse-like string forces non-unique LMS names.
        let mut text: Vec<u8> = Vec::new();
        let mut bit = 1u8;
        for i in 0..200 {
            if i % 3 == 0 {
                bit = 3 - bit;
            }
            text.push(bit);
            text.push(3 - bit);
        }
        text.push(0);
        check(&text);
    }

    #[test]
    #[should_panic(expected = "must end with the 0 sentinel")]
    fn missing_sentinel_panics() {
        suffix_array(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "only appear as the final sentinel")]
    fn interior_sentinel_panics() {
        suffix_array(&[1, 0, 2, 0]);
    }

    #[test]
    fn matches_naive_on_random_texts() {
        check_cases(256, |rng| {
            let mut text = rng.vec(1..300, |r| r.range(1..6) as u8);
            text.push(0);
            check(&text);
        });
    }

    #[test]
    fn matches_naive_on_low_entropy_texts() {
        check_cases(256, |rng| {
            let mut text = rng.vec(1..300, |r| r.range(1..3) as u8);
            text.push(0);
            check(&text);
        });
    }
}
