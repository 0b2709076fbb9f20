// Fixture: panicking constructs inside a decode path.
pub fn decode_frame(buf: &[u8]) -> (u16, u8) {
    let port = u16::from_be_bytes([buf[0], buf[1]]);
    let ttl = buf.get(2).copied().unwrap();
    if ttl == 0 {
        panic!("zero ttl");
    }
    (port, ttl)
}

pub fn decode_checked(buf: &[u8]) -> Option<u8> {
    // The panic-free idiom stays legal inside a decode fn.
    buf.get(0).copied()
}

pub fn encode_frame(buf: &[u8]) -> u8 {
    // Not a decode path: indexing and unwrap are out of this rule's
    // scope here (clippy covers them separately).
    let first = buf[0];
    let second = buf.get(1).copied().unwrap();
    first + second
}

#[cfg(test)]
mod tests {
    #[test]
    fn decode_frame_round_trips() {
        // A test of a decoder may assert, unwrap and index.
        let buf = [0u8, 53, 64];
        assert_eq!(super::decode_frame(&buf), (53, buf[2]));
        super::decode_checked(&buf).unwrap();
    }
}
