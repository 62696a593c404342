#include "net/wire_stream.h"

#include <cstring>

namespace optrep::net {

void StreamDecoder::append(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates the buffer — keeps the buffer
  // bounded by one in-flight record plus the decode-ahead window.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

StreamDecoder::Item StreamDecoder::next() {
  Item item;
  if (dead_) {
    item.type = ItemType::kError;
    return item;
  }
  if (!msgs_.empty()) {
    item.type = ItemType::kMsg;
    item.msg = msgs_.front();
    msgs_.pop_front();
    return item;
  }
  if (pos_ >= buf_.size()) return item;  // kNeedMore

  // Control record at the cursor? Fixed layouts, so completeness is a length
  // check; anything else goes through the codec.
  const std::uint8_t head = buf_[pos_];
  if (head == kCtlHello || head == kCtlAccept || head == kCtlEnd || head == kCtlDone ||
      head == kMagic[0]) {
    return pull_control();
  }

  std::vector<vv::VvMsg> decoded;
  const auto err = vv::frame_decode_stream(buf_.data(), buf_.size(), &pos_, &chain_, &decoded);
  for (const vv::VvMsg& m : decoded) msgs_.push_back(m);
  switch (err) {
    case vv::FrameDecodeError::kNone:
    case vv::FrameDecodeError::kTruncated:
      break;  // control tag handling below is unreachable here; fall through
    case vv::FrameDecodeError::kUnknownTag:
      // The codec parked *pos on the foreign byte: either one of our control
      // tags (handled on the next pull) or stream corruption.
      if (msgs_.empty()) {
        const std::uint8_t tag = buf_[pos_];
        if (tag != kCtlHello && tag != kCtlAccept && tag != kCtlEnd && tag != kCtlDone &&
            tag != kMagic[0]) {
          dead_ = true;
          item.type = ItemType::kError;
          return item;
        }
        return next();  // re-enter the control path
      }
      break;
    case vv::FrameDecodeError::kVarintOverflow:
      dead_ = true;
      if (msgs_.empty()) {
        item.type = ItemType::kError;
        return item;
      }
      break;  // drain what decoded first; the error resurfaces after
  }
  if (!msgs_.empty()) {
    item.type = ItemType::kMsg;
    item.msg = msgs_.front();
    msgs_.pop_front();
  }
  return item;
}

StreamDecoder::Item StreamDecoder::pull_control() {
  Item item;
  const std::size_t avail = buf_.size() - pos_;
  const std::uint8_t head = buf_[pos_];
  switch (head) {
    case kCtlHello: {
      if (avail < 6) return item;  // kNeedMore
      item.type = ItemType::kHello;
      const std::uint8_t kb = buf_[pos_ + 1];
      item.kind = static_cast<SessionKind>(kb & kHelloKindMask);
      item.flags = static_cast<std::uint8_t>(kb & ~kHelloKindMask);
      item.replica = 0;
      for (int i = 0; i < 4; ++i) {
        item.replica |= static_cast<std::uint32_t>(buf_[pos_ + 2 + i]) << (8 * i);
      }
      pos_ += 6;
      chain_ = {};  // session boundary: fresh delta chain
      return item;
    }
    case kCtlAccept:
    case kCtlDone: {
      if (avail < 2) return item;
      item.type = head == kCtlAccept ? ItemType::kAccept : ItemType::kDone;
      item.status = buf_[pos_ + 1];
      pos_ += 2;
      if (head == kCtlAccept) chain_ = {};
      return item;
    }
    case kCtlEnd:
      item.type = ItemType::kEnd;
      pos_ += 1;
      return item;
    default: {  // kMagic[0]
      if (avail < 4) return item;
      if (std::memcmp(buf_.data() + pos_, kMagic, 4) != 0) {
        dead_ = true;
        item.type = ItemType::kError;
        return item;
      }
      item.type = ItemType::kMagic;
      pos_ += 4;
      return item;
    }
  }
}

}  // namespace optrep::net
