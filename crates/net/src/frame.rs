//! Ethernet framing and TCP segmentation arithmetic.
//!
//! The paper notes that requests of 64 KB or larger must be split into
//! multiple TCP packets (§5.2); in fact any payload beyond one MSS
//! segments. Values up to 1 MB therefore span hundreds of frames, which is
//! why the network stack's per-frame costs dominate large transfers.

/// TCP maximum segment size: the 1500 B Ethernet MTU minus 20 B IP,
/// 20 B TCP, and 12 B of TCP timestamp options.
pub(crate) const MSS_BYTES: u64 = 1448;

/// Non-payload bytes that occupy the wire per frame: 14 B Ethernet
/// header + 4 B FCS + 8 B preamble + 12 B inter-frame gap + 52 B of
/// IP/TCP headers and options.
pub(crate) const PER_FRAME_OVERHEAD_BYTES: u64 = 90;

/// Number of TCP segments needed to carry `payload` bytes.
///
/// A zero-byte payload still needs one frame (the request/response header
/// itself rides in a segment).
///
/// # Examples
///
/// ```
/// use densekv_net::frames_for_payload;
///
/// assert_eq!(frames_for_payload(0), 1);
/// assert_eq!(frames_for_payload(1448), 1);
/// assert_eq!(frames_for_payload(1449), 2);
/// assert_eq!(frames_for_payload(1 << 20), 725); // a 1 MB value
/// ```
pub const fn frames_for_payload(payload: u64) -> u64 {
    if payload == 0 {
        1
    } else {
        payload.div_ceil(MSS_BYTES)
    }
}

/// Total bytes the payload occupies on the wire, including all per-frame
/// overhead.
///
/// # Examples
///
/// ```
/// use densekv_net::wire_bytes_for_payload;
///
/// assert_eq!(wire_bytes_for_payload(64), 64 + 90);
/// ```
pub const fn wire_bytes_for_payload(payload: u64) -> u64 {
    payload + frames_for_payload(payload) * PER_FRAME_OVERHEAD_BYTES
}

/// Protocol-level request sizing: how many payload bytes each direction of
/// a GET or PUT carries for a given value size.
///
/// Memcached's text protocol adds a small header line (key, flags,
/// length); we fold it into a fixed per-message overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageSizes {
    /// Bytes the client sends to the server.
    pub request_payload: u64,
    /// Bytes the server sends back.
    pub response_payload: u64,
}

/// Protocol header bytes per message (command line / response line).
pub(crate) const PROTOCOL_OVERHEAD_BYTES: u64 = 40;

impl MessageSizes {
    /// Sizing for a GET of a `value_bytes` value with a `key_bytes` key.
    pub const fn get(key_bytes: u64, value_bytes: u64) -> Self {
        MessageSizes {
            request_payload: PROTOCOL_OVERHEAD_BYTES + key_bytes,
            response_payload: PROTOCOL_OVERHEAD_BYTES + value_bytes,
        }
    }

    /// Sizing for a multi-GET of `count` keys, each returning a
    /// `value_bytes` value. The request line carries all keys; the
    /// response carries every VALUE block.
    pub const fn multiget(key_bytes: u64, value_bytes: u64, count: u64) -> Self {
        MessageSizes {
            request_payload: PROTOCOL_OVERHEAD_BYTES + (key_bytes + 1) * count,
            response_payload: (PROTOCOL_OVERHEAD_BYTES + value_bytes) * count,
        }
    }

    /// Sizing for a PUT (memcached `set`) of a `value_bytes` value.
    pub const fn put(key_bytes: u64, value_bytes: u64) -> Self {
        MessageSizes {
            request_payload: PROTOCOL_OVERHEAD_BYTES + key_bytes + value_bytes,
            response_payload: PROTOCOL_OVERHEAD_BYTES,
        }
    }

    /// Frames the request direction needs.
    pub const fn request_frames(&self) -> u64 {
        frames_for_payload(self.request_payload)
    }

    /// Frames the response direction needs.
    pub const fn response_frames(&self) -> u64 {
        frames_for_payload(self.response_payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_payload_still_frames() {
        assert_eq!(frames_for_payload(0), 1);
    }

    #[test]
    fn segmentation_boundaries() {
        assert_eq!(frames_for_payload(MSS_BYTES), 1);
        assert_eq!(frames_for_payload(MSS_BYTES + 1), 2);
        assert_eq!(frames_for_payload(2 * MSS_BYTES), 2);
        // Paper: 64 KB and larger always multi-frame.
        assert!(frames_for_payload(64 << 10) > 1);
        assert_eq!(frames_for_payload(64 << 10), 46);
    }

    #[test]
    fn wire_bytes_include_overhead() {
        let one = wire_bytes_for_payload(100);
        assert_eq!(one, 190);
        let big = wire_bytes_for_payload(1 << 20);
        assert_eq!(big, (1 << 20) + 725 * 90);
    }

    #[test]
    fn get_sizes_are_asymmetric() {
        let m = MessageSizes::get(16, 4096);
        assert_eq!(m.request_payload, 56);
        assert_eq!(m.response_payload, 4136);
        assert_eq!(m.request_frames(), 1);
        assert_eq!(m.response_frames(), 3);
    }

    #[test]
    fn put_sizes_are_mirrored() {
        let m = MessageSizes::put(16, 4096);
        assert_eq!(m.request_payload, 4152);
        assert_eq!(m.response_payload, 40);
        assert_eq!(m.request_frames(), 3);
        assert_eq!(m.response_frames(), 1);
    }

    #[test]
    fn multiget_amortizes_request_overhead() {
        let single = MessageSizes::get(16, 256);
        let batch = MessageSizes::multiget(16, 256, 10);
        // One request line instead of ten.
        assert!(batch.request_payload < 10 * single.request_payload);
        // Responses don't amortize (every value ships).
        assert_eq!(batch.response_payload, 10 * single.response_payload);
        assert_eq!(
            MessageSizes::multiget(16, 256, 1).response_payload,
            single.response_payload
        );
    }

    #[test]
    fn get_and_put_move_same_value_bytes() {
        for size in [64u64, 1024, 1 << 20] {
            let g = MessageSizes::get(16, size);
            let p = MessageSizes::put(16, size);
            assert_eq!(
                g.request_payload + g.response_payload,
                p.request_payload + p.response_payload
            );
        }
    }
}
