//! Minimal hexadecimal encoding.
//!
//! # Examples
//!
//! ```
//! assert_eq!(sbc_primitives::hex::encode(&[0x00, 0xff, 0x10]), "00ff10");
//! ```

/// Encodes `bytes` as a lowercase hex string.
pub fn encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble < 16"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble < 16"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_every_byte() {
        assert_eq!(encode(&[]), "");
        let all: String = (0..=255u8).map(|b| format!("{b:02x}")).collect();
        assert_eq!(encode(&(0..=255).collect::<Vec<u8>>()), all);
    }
}
