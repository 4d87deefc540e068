//! Masking wall-clock figures out of rendered output, and hashing it.

/// Replace every decimal number directly followed by ` ms` or ` s` (a
/// wall-clock figure such as `2102.1 ms` or `3.28 s`) with `#`, so two
/// runs of the same computation render identical text.
pub fn mask_wall_clock(text: &str) -> String {
    let b = text.as_bytes();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < b.len() {
        let starts_number = b[i].is_ascii_digit() && (i == 0 || !is_word(b[i - 1]));
        if starts_number {
            let mut j = i;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                j += 1;
            }
            if is_time_unit(&b[j..]) {
                out.push('#');
                i = j;
                continue;
            }
            out.push_str(&text[i..j]);
            i = j;
            continue;
        }
        let ch = text[i..].chars().next().expect("index on a char boundary");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

fn is_word(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c == b'.'
}

/// Whether `rest` starts with ` ms` or ` s` followed by a non-word byte.
fn is_time_unit(rest: &[u8]) -> bool {
    ["ms", "s"].iter().any(|unit| {
        let u = unit.as_bytes();
        rest.len() > u.len()
            && rest[0] == b' '
            && &rest[1..=u.len()] == u
            && rest.get(u.len() + 1).is_none_or(|&c| !is_word(c))
    })
}

/// 64-bit FNV-1a, rendered as 16 hex digits.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in bytes {
        h ^= u64::from(c);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}
