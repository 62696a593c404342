// Delta-varint frame codec: the realistic wire encoding of a coalesced
// message frame (sim::FrameLink) on the sender→receiver and receiver→sender
// vv links.
//
// The per-message codec (vv/codec.h) realizes the §3.3 cost model bit for
// bit; this codec is what the *bytes* of a batched implementation would look
// like, and only feeds the `framed_wire_bytes` figure — model-bit accounting
// and every Table 2 cross-check are computed from the per-message sizes and
// are untouched by framing (tests assert this).
//
// Layout: a frame is a self-delimiting byte string, one tag byte per message
// (no count header, so a one-message control frame costs exactly its
// unframed byte), followed by tag-dependent fields:
//
//   0x01 HALT            0x02 SKIPPED         0x03 ACK
//   0x06 VERDICT(not)    0x07 VERDICT(covers)
//   0x04|wide  SKIP      + segment index (varint, or 4-byte LE when wide)
//   0x20|flags PROBE     + site, value (delta-varint or wide, as elements)
//   0x80|flags ELEM      + site, value
//
// Element site ids and values are sent as zigzag-LEB128 *deltas* against the
// previous element of the same frame (the first element diffs against zero).
// Elements stream in ≺ order, and consecutive updates have nearby values, so
// the common delta fits one or two bytes. Wide flag bits (0x04 site,
// 0x08 value on elements/probes; 0x10 on SKIP) switch a field to its
// fixed-width raw encoding whenever the varint would be longer, which caps
// every message at its unframed byte size — a frame is never larger than the
// messages it replaces (fuzzed against the per-message codec as oracle).
#pragma once

#include <cstdint>
#include <vector>

#include "vv/wire.h"

namespace optrep::vv {

// The codec's integer primitives, shared with the graph frame sizer: LEB128
// byte length and zigzag folding of signed deltas.
inline std::uint32_t varint_len(std::uint64_t v) {
  std::uint32_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

inline std::uint64_t zigzag(std::int64_t n) {
  return (static_cast<std::uint64_t>(n) << 1) ^ static_cast<std::uint64_t>(n >> 63);
}

// Exact encoded size of one frame, computed without materializing bytes
// (this is the FrameLink sizer: it runs once per frame on the hot path).
std::uint64_t frame_wire_bytes(const std::vector<VvMsg>& msgs);

// Size of a one-message frame (the frame_budget == 0 accounting path).
std::uint64_t frame_wire_bytes_single(const VvMsg& m);

// Append the frame encoding of msgs to out; returns the bytes appended
// (== frame_wire_bytes(msgs)).
std::uint64_t frame_encode(std::vector<std::uint8_t>& out, const std::vector<VvMsg>& msgs);

// Typed decode errors for untrusted frame bytes (e.g. after in-flight
// corruption, sim/fault_link.h).
enum class FrameDecodeError : std::uint8_t {
  kNone = 0,
  kTruncated,       // a field ran past the end of the frame
  kVarintOverflow,  // a varint continued past 64 bits
  kUnknownTag,      // a tag byte outside the codec's map
};

// Delta chain for element/probe site+value fields. A frame is one chain; a
// byte *stream* (net/wire_stream.h) is a frame that never ends, so the chain
// state lives outside the codec calls and is reset at session boundaries.
struct FrameDeltaState {
  std::uint64_t prev_site{0};
  std::uint64_t prev_value{0};
};

// Append the encoding of one message to out, continuing the delta chain in
// *st; returns the bytes appended. frame_encode(msgs) is equivalent to this
// over a fresh chain.
std::uint64_t frame_encode_msg(std::vector<std::uint8_t>& out, const VvMsg& m,
                               FrameDeltaState* st);

// Incremental decode over a byte stream that arrives in arbitrary chunks.
// Starts at *pos, appends every complete message to *out (advancing *pos and
// *st past each), and stops at `size` (kNone) or on the first undecodable
// message. On any error *pos rests at the first byte of the offending
// message and *st is exactly the chain state before it, so the contract is:
//
//   kTruncated   ⇒ resume: call again with the same *pos/*st once more bytes
//                  arrived; the partial suffix re-decodes from scratch.
//   kUnknownTag  ⇒ data[*pos] is the foreign tag — the net layer checks it
//                  against its in-band control tags before treating it as
//                  corruption.
//   kVarintOverflow ⇒ corruption; the stream is dead.
FrameDecodeError frame_decode_stream(const std::uint8_t* data, std::size_t size,
                                     std::size_t* pos, FrameDeltaState* st,
                                     std::vector<VvMsg>* out);

// Decode a whole frame (consumes the full byte string) without aborting:
// returns the error and leaves *out with the messages decoded before it.
FrameDecodeError try_frame_decode(const std::vector<std::uint8_t>& bytes,
                                  std::vector<VvMsg>* out);

// Aborting decode for trusted buffers the caller encoded itself — feeding
// this garbage is API misuse.
std::vector<VvMsg> frame_decode(const std::vector<std::uint8_t>& bytes);

}  // namespace optrep::vv
