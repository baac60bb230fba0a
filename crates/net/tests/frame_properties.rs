//! Property-based transport-safety tests: *no* corruption of the BANET
//! byte stream — bit flips, truncations, oversized length prefixes, or
//! outright garbage, at any offset — may ever panic the frame reader or
//! desynchronize it past a corrupt frame. Every mangled input must come
//! back as a clean [`FrameError`]; the absence of a panic (and of a
//! silently-wrong decode) is the property under test.
//!
//! A pristine multi-message stream is built once; each case mutates its
//! own private copy and feeds it through [`FrameReader`] over an in-memory
//! reader, exactly as the TCP path does.

use baclassifier::durable::put_frame;
use banet::frame::{decode_frame, write_magic, write_message};
use banet::{FrameError, FrameReader, Hello, Message, ReplyOutcome, Role, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every message shape on the wire, as one encoded stream (magic first,
/// as the handshake writes it).
fn pristine() -> &'static Vec<u8> {
    static PRISTINE: OnceLock<Vec<u8>> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let mut buf = Vec::new();
        write_magic(&mut buf).unwrap();
        let messages = [
            Message::Hello(Hello {
                role: Role::Worker,
                shard_index: 3,
                shard_count: 8,
                hash_version: 1,
            }),
            Message::Classify {
                req_id: 1,
                address: 0xdead_beef,
            },
            Message::Reply {
                req_id: 1,
                outcome: ReplyOutcome::Ok {
                    label_index: 2,
                    cache_hit: true,
                    degraded: false,
                    latency_us: 1234,
                },
            },
            Message::Reply {
                req_id: 2,
                outcome: ReplyOutcome::Reject("shard 1 does not own address 7".into()),
            },
            Message::Ping { nonce: 99 },
            Message::Pong { nonce: 99 },
        ];
        for m in &messages {
            write_message(&mut buf, m).unwrap();
        }
        buf
    })
}

fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let at = (bit % (bytes.len() as u64 * 8)) as usize;
    bytes[at / 8] ^= 1 << (at % 8);
}

/// Drain a mangled stream through the reader: every outcome must be a
/// clean decode, a descriptive error, or EOF — never a panic, and never
/// an unbounded loop (the reader either progresses or poisons).
fn reader_survives(bytes: Vec<u8>) {
    let mut reader = FrameReader::new(std::io::Cursor::new(bytes));
    for _ in 0..1024 {
        match reader.read_message() {
            Ok(Some(_)) => {}
            Ok(None) => return, // clean EOF at a frame boundary
            Err(e) => {
                // Errors must be descriptive, never silent.
                assert!(!e.to_string().is_empty());
                return;
            }
        }
    }
    panic!("reader neither drained nor failed after 1024 frames");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A single flipped bit anywhere in the stream: the CRC (or the magic
    // check, or the payload parser) must catch it cleanly.
    #[test]
    fn bit_flips_never_panic_or_desync(bit in any::<u64>()) {
        let mut bytes = pristine().clone();
        flip_bit(&mut bytes, bit);
        reader_survives(bytes);
    }

    // Truncation at any byte — a torn send, a killed peer. A cut at a
    // frame boundary is a clean EOF; mid-frame is `Truncated`.
    #[test]
    fn truncations_never_panic(cut in any::<u64>()) {
        let mut bytes = pristine().clone();
        let keep = (cut % (bytes.len() as u64 + 1)) as usize;
        bytes.truncate(keep);
        reader_survives(bytes);
    }

    // Arbitrary garbage, with and without a valid magic in front: the
    // reader must reject without allocating for absurd length prefixes.
    #[test]
    fn garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..256),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if with_magic {
            write_magic(&mut bytes).unwrap();
        }
        bytes.extend_from_slice(&garbage);
        reader_survives(bytes);
    }

    // An oversized length prefix must be refused before any allocation,
    // whatever the claimed size.
    #[test]
    fn oversized_lengths_are_rejected_without_allocation(
        extra in 1u32..=u32::MAX - MAX_FRAME_LEN,
    ) {
        let claimed = MAX_FRAME_LEN + extra;
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::TooLarge(n)) => prop_assert_eq!(n, claimed),
            other => prop_assert!(false, "expected TooLarge, got {:?}", other.map(|_| ())),
        }
    }

    // Round-trip: whatever classify/reply payload we encode comes back
    // bit-identical through the framed path, even split across arbitrary
    // chunk sizes (short reads never desync the reader).
    #[test]
    fn classify_roundtrips_through_any_chunking(
        req_id in any::<u64>(),
        address in any::<u64>(),
        chunk in 1usize..16,
    ) {
        let msg = Message::Classify { req_id, address };
        let mut bytes = Vec::new();
        write_magic(&mut bytes).unwrap();
        write_message(&mut bytes, &msg).unwrap();

        struct Chunked {
            bytes: Vec<u8>,
            at: usize,
            chunk: usize,
        }
        impl std::io::Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.chunk.min(buf.len()).min(self.bytes.len() - self.at);
                buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
                self.at += n;
                Ok(n)
            }
        }
        let mut reader = FrameReader::new(Chunked { bytes, at: 0, chunk });
        let got = reader.read_message().unwrap().expect("one frame in");
        prop_assert_eq!(got, msg);
        prop_assert!(reader.read_message().unwrap().is_none());
    }

    // A frame whose payload is valid except for trailing junk must be
    // `Malformed`, not silently accepted.
    #[test]
    fn trailing_payload_junk_is_malformed(junk in proptest::collection::vec(any::<u8>(), 1..32)) {
        let mut payload = Message::Ping { nonce: 7 }.encode();
        payload.extend_from_slice(&junk);
        let mut framed = Vec::new();
        put_frame(&mut framed, &payload, MAX_FRAME_LEN).unwrap();
        match decode_frame(&framed) {
            Err(FrameError::Malformed(_)) => {}
            other => prop_assert!(false, "expected Malformed, got {:?}", other.map(|_| ())),
        }
    }
}
