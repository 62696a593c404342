#include "vv/frame_codec.h"

#include "common/check.h"

namespace optrep::vv {

namespace {

// Message tags (one byte; see frame_codec.h for the map).
constexpr std::uint8_t kTagHalt = 0x01;
constexpr std::uint8_t kTagSkipped = 0x02;
constexpr std::uint8_t kTagAck = 0x03;
constexpr std::uint8_t kTagSkip = 0x04;
constexpr std::uint8_t kTagVerdictNot = 0x06;
constexpr std::uint8_t kTagVerdictCovers = 0x07;
constexpr std::uint8_t kTagProbe = 0x20;
constexpr std::uint8_t kTagElem = 0x80;

constexpr std::uint8_t kFlagConflict = 0x01;
constexpr std::uint8_t kFlagSegment = 0x02;
constexpr std::uint8_t kFlagWideSite = 0x04;
constexpr std::uint8_t kFlagWideValue = 0x08;
constexpr std::uint8_t kFlagWideSkip = 0x10;

// Fixed-width fallbacks: a site is 4 raw bytes, a value 8, matching the
// unframed realistic encoding — the wide flags guarantee framed ≤ unframed
// per message.
constexpr std::uint32_t kWideSiteBytes = 4;
constexpr std::uint32_t kWideValueBytes = 8;

std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

void put_fixed(std::vector<std::uint8_t>& out, std::uint64_t v, std::uint32_t bytes) {
  for (std::uint32_t i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

struct FieldPlan {
  std::uint64_t site_zz;
  std::uint64_t value_zz;
  bool wide_site;
  bool wide_value;
  std::uint64_t bytes;  // site field + value field
};

FieldPlan plan_fields(FrameDeltaState& st, const VvMsg& m) {
  FieldPlan p{};
  p.site_zz = zigzag(static_cast<std::int64_t>(m.site.value) -
                     static_cast<std::int64_t>(st.prev_site));
  p.value_zz = zigzag(static_cast<std::int64_t>(m.value - st.prev_value));
  p.wide_site = varint_len(p.site_zz) > kWideSiteBytes;
  p.wide_value = varint_len(p.value_zz) > kWideValueBytes;
  p.bytes = (p.wide_site ? kWideSiteBytes : varint_len(p.site_zz)) +
            (p.wide_value ? kWideValueBytes : varint_len(p.value_zz));
  st.prev_site = m.site.value;
  st.prev_value = m.value;
  return p;
}

std::uint64_t msg_framed_bytes(FrameDeltaState& st, const VvMsg& m) {
  switch (m.kind) {
    case VvMsg::Kind::kElem:
    case VvMsg::Kind::kProbe:
      return 1 + plan_fields(st, m).bytes;
    case VvMsg::Kind::kSkip: {
      // Segment indexes are 32-bit, like the unframed 5-byte SKIP encoding.
      OPTREP_CHECK_MSG(m.arg <= 0xFFFFFFFFull, "skip segment index exceeds 32 bits");
      const std::uint32_t len = varint_len(m.arg);
      return 1 + (len > kWideSiteBytes ? kWideSiteBytes : len);
    }
    case VvMsg::Kind::kHalt:
    case VvMsg::Kind::kSkipped:
    case VvMsg::Kind::kAck:
    case VvMsg::Kind::kVerdict:
      return 1;
  }
  OPTREP_CHECK(false);
  return 0;
}

// Non-aborting reader: every accessor reports truncation/overflow through its
// return value so the decoder can surface a typed error for untrusted bytes.
class FrameReader {
 public:
  FrameReader(const std::uint8_t* data, std::size_t size, std::size_t pos)
      : data_(data), size_(size), pos_(pos) {}

  bool done() const { return pos_ == size_; }
  std::size_t pos() const { return pos_; }

  bool byte(std::uint8_t* out) {
    if (pos_ >= size_) return false;
    *out = data_[pos_++];
    return true;
  }

  FrameDecodeError varint(std::uint64_t* out) {
    std::uint64_t v = 0;
    std::uint32_t shift = 0;
    while (true) {
      if (shift >= 64) return FrameDecodeError::kVarintOverflow;
      std::uint8_t b = 0;
      if (!byte(&b)) return FrameDecodeError::kTruncated;
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *out = v;
        return FrameDecodeError::kNone;
      }
      shift += 7;
    }
  }

  bool fixed(std::uint32_t bytes, std::uint64_t* out) {
    std::uint64_t v = 0;
    for (std::uint32_t i = 0; i < bytes; ++i) {
      std::uint8_t b = 0;
      if (!byte(&b)) return false;
      v |= static_cast<std::uint64_t>(b) << (8 * i);
    }
    *out = v;
    return true;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_;
};

// Decode one message. On success the reader sits past the message and *st has
// absorbed it; on any error the chain state is untouched (element decoding
// stages both fields in locals first), so the caller can rewind to the
// message start and retry byte-for-byte once more input arrives.
FrameDecodeError decode_one(FrameReader& r, FrameDeltaState& st, VvMsg* out) {
  std::uint8_t tag = 0;
  if (!r.byte(&tag)) return FrameDecodeError::kTruncated;
  VvMsg m;
  if ((tag & kTagElem) != 0 || (tag & kTagProbe) != 0) {
    m.kind = (tag & kTagElem) != 0 ? VvMsg::Kind::kElem : VvMsg::Kind::kProbe;
    m.conflict = m.kind == VvMsg::Kind::kElem && (tag & kFlagConflict) != 0;
    m.segment = m.kind == VvMsg::Kind::kElem && (tag & kFlagSegment) != 0;
    std::uint64_t raw = 0;
    if ((tag & kFlagWideSite) != 0) {
      if (!r.fixed(kWideSiteBytes, &raw)) return FrameDecodeError::kTruncated;
      m.site = SiteId{static_cast<std::uint32_t>(raw)};
    } else {
      if (const auto err = r.varint(&raw); err != FrameDecodeError::kNone) return err;
      m.site = SiteId{static_cast<std::uint32_t>(
          static_cast<std::int64_t>(st.prev_site) + unzigzag(raw))};
    }
    if ((tag & kFlagWideValue) != 0) {
      if (!r.fixed(kWideValueBytes, &raw)) return FrameDecodeError::kTruncated;
      m.value = raw;
    } else {
      if (const auto err = r.varint(&raw); err != FrameDecodeError::kNone) return err;
      m.value = st.prev_value + static_cast<std::uint64_t>(unzigzag(raw));
    }
    st.prev_site = m.site.value;
    st.prev_value = m.value;
  } else if ((tag & kTagSkip) != 0 && (tag & ~(kTagSkip | kFlagWideSkip)) == 0) {
    m.kind = VvMsg::Kind::kSkip;
    if ((tag & kFlagWideSkip) != 0) {
      if (!r.fixed(kWideSiteBytes, &m.arg)) return FrameDecodeError::kTruncated;
    } else {
      if (const auto err = r.varint(&m.arg); err != FrameDecodeError::kNone) return err;
    }
  } else {
    switch (tag) {
      case kTagHalt:
        m.kind = VvMsg::Kind::kHalt;
        break;
      case kTagSkipped:
        m.kind = VvMsg::Kind::kSkipped;
        break;
      case kTagAck:
        m.kind = VvMsg::Kind::kAck;
        break;
      case kTagVerdictNot:
        m.kind = VvMsg::Kind::kVerdict;
        m.arg = 0;
        break;
      case kTagVerdictCovers:
        m.kind = VvMsg::Kind::kVerdict;
        m.arg = 1;
        break;
      default:
        return FrameDecodeError::kUnknownTag;
    }
  }
  *out = m;
  return FrameDecodeError::kNone;
}

}  // namespace

std::uint64_t frame_wire_bytes(const std::vector<VvMsg>& msgs) {
  FrameDeltaState st;
  std::uint64_t total = 0;
  for (const VvMsg& m : msgs) total += msg_framed_bytes(st, m);
  return total;
}

std::uint64_t frame_wire_bytes_single(const VvMsg& m) {
  FrameDeltaState st;
  return msg_framed_bytes(st, m);
}

std::uint64_t frame_encode_msg(std::vector<std::uint8_t>& out, const VvMsg& m,
                               FrameDeltaState* st) {
  const std::size_t before = out.size();
  switch (m.kind) {
    case VvMsg::Kind::kElem:
    case VvMsg::Kind::kProbe: {
      const FieldPlan p = plan_fields(*st, m);
      std::uint8_t tag = m.kind == VvMsg::Kind::kElem ? kTagElem : kTagProbe;
      if (m.kind == VvMsg::Kind::kElem) {
        if (m.conflict) tag |= kFlagConflict;
        if (m.segment) tag |= kFlagSegment;
      }
      if (p.wide_site) tag |= kFlagWideSite;
      if (p.wide_value) tag |= kFlagWideValue;
      out.push_back(tag);
      if (p.wide_site) {
        put_fixed(out, m.site.value, kWideSiteBytes);
      } else {
        put_varint(out, p.site_zz);
      }
      if (p.wide_value) {
        put_fixed(out, m.value, kWideValueBytes);
      } else {
        put_varint(out, p.value_zz);
      }
      break;
    }
    case VvMsg::Kind::kSkip: {
      OPTREP_CHECK_MSG(m.arg <= 0xFFFFFFFFull, "skip segment index exceeds 32 bits");
      const bool wide = varint_len(m.arg) > kWideSiteBytes;
      out.push_back(static_cast<std::uint8_t>(kTagSkip | (wide ? kFlagWideSkip : 0)));
      if (wide) {
        put_fixed(out, m.arg, kWideSiteBytes);
      } else {
        put_varint(out, m.arg);
      }
      break;
    }
    case VvMsg::Kind::kHalt:
      out.push_back(kTagHalt);
      break;
    case VvMsg::Kind::kSkipped:
      out.push_back(kTagSkipped);
      break;
    case VvMsg::Kind::kAck:
      out.push_back(kTagAck);
      break;
    case VvMsg::Kind::kVerdict:
      out.push_back(m.arg != 0 ? kTagVerdictCovers : kTagVerdictNot);
      break;
  }
  return out.size() - before;
}

std::uint64_t frame_encode(std::vector<std::uint8_t>& out, const std::vector<VvMsg>& msgs) {
  FrameDeltaState st;
  std::uint64_t total = 0;
  for (const VvMsg& m : msgs) total += frame_encode_msg(out, m, &st);
  return total;
}

FrameDecodeError frame_decode_stream(const std::uint8_t* data, std::size_t size,
                                     std::size_t* pos, FrameDeltaState* st,
                                     std::vector<VvMsg>* out) {
  FrameReader r(data, size, *pos);
  while (!r.done()) {
    const std::size_t msg_start = r.pos();
    VvMsg m;
    if (const auto err = decode_one(r, *st, &m); err != FrameDecodeError::kNone) {
      *pos = msg_start;
      return err;
    }
    out->push_back(m);
    *pos = r.pos();
  }
  return FrameDecodeError::kNone;
}

FrameDecodeError try_frame_decode(const std::vector<std::uint8_t>& bytes,
                                  std::vector<VvMsg>* out) {
  out->clear();
  std::size_t pos = 0;
  FrameDeltaState st;
  return frame_decode_stream(bytes.data(), bytes.size(), &pos, &st, out);
}

std::vector<VvMsg> frame_decode(const std::vector<std::uint8_t>& bytes) {
  std::vector<VvMsg> msgs;
  const FrameDecodeError err = try_frame_decode(bytes, &msgs);
  OPTREP_CHECK_MSG(err != FrameDecodeError::kTruncated, "frame decode: truncated input");
  OPTREP_CHECK_MSG(err != FrameDecodeError::kVarintOverflow, "frame decode: varint overflow");
  OPTREP_CHECK_MSG(err != FrameDecodeError::kUnknownTag, "frame decode: unknown tag");
  return msgs;
}

}  // namespace optrep::vv
