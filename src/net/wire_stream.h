// The sync-server wire protocol: vv/frame_codec message streams with in-band
// session control records.
//
// A connection opens with a 4-byte magic ("ORS1"); after that it carries any
// number of sequential sessions, each of them:
//
//   client → server   HELLO  = [0x48, kind byte, replica id (LE32)]
//   server → client   ACCEPT = [0x41, status]
//   both directions   a frame_codec message stream (COMPARE probes/verdicts,
//                     then the sync element stream and its responses)
//   data sender  →    END    = [0x45]      (its half of the session is done)
//   data receiver →   DONE   = [0x44, status]
//
// The kind byte's low nibble selects the session (0..3: COMPARE / SYNCB /
// SYNCC / SYNCS; the server answers any other nibble with kBadKind); flag
// 0x10 makes it a pull (server is the element sender), flag 0x20 selects
// stop-and-wait flow control (the vv ablation mode — fully lockstep, which
// is also what makes bench_serve's byte totals machine-independent).
//
// The control tags live in frame_codec's unassigned tag space, so the
// decoder below is context-free: it runs vv::frame_decode_stream until the
// codec reports kUnknownTag, checks that byte against the control map, and
// resumes the codec afterwards. kTruncated simply means "await more bytes" —
// the satellite fix in frame_codec.h is what makes this loop possible.
// Element delta chains span a whole session half (reset at HELLO/ACCEPT),
// so consecutive sync elements delta-compress across what would have been
// frame boundaries in the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "vv/frame_codec.h"
#include "vv/rotating_vector.h"
#include "vv/wire.h"

namespace optrep::net {

inline constexpr std::uint8_t kMagic[4] = {'O', 'R', 'S', '1'};

// Control tags — all in frame_codec's unknown-tag space (no 0x80/0x20 bits,
// not a SKIP pattern, not a 1-byte control tag).
inline constexpr std::uint8_t kCtlHello = 0x48;   // 'H'
inline constexpr std::uint8_t kCtlAccept = 0x41;  // 'A'
inline constexpr std::uint8_t kCtlEnd = 0x45;     // 'E'
inline constexpr std::uint8_t kCtlDone = 0x44;    // 'D'

enum class SessionKind : std::uint8_t { kCompare = 0, kSyncB = 1, kSyncC = 2, kSyncS = 3 };

inline constexpr std::uint8_t kHelloKindMask = 0x0F;
inline constexpr std::uint8_t kHelloFlagPull = 0x10;         // server sends the elements
inline constexpr std::uint8_t kHelloFlagStopAndWait = 0x20;  // ablation flow control

enum class AcceptStatus : std::uint8_t {
  kOk = 0,
  kBadKind = 1,     // undefined kind, or a sync kind the store does not run
  kBadReplica = 2,  // replica id out of range
  kShutdown = 3,    // server is stopping
};

enum class DoneStatus : std::uint8_t {
  kCommitted = 0,  // receiver applied and committed the transfer
  kNoop = 1,       // nothing to transfer (=, covered, or BRV ‖)
  kCapacity = 2,   // commit rejected: vector exceeds the store's site capacity
};

constexpr std::string_view to_string(SessionKind k) {
  switch (k) {
    case SessionKind::kCompare: return "compare";
    case SessionKind::kSyncB: return "syncb";
    case SessionKind::kSyncC: return "syncc";
    case SessionKind::kSyncS: return "syncs";
  }
  return "?";
}

// The sync algorithm a session kind runs (compare has none; callers gate).
constexpr vv::VectorKind vector_kind_of(SessionKind k) {
  switch (k) {
    case SessionKind::kSyncB: return vv::VectorKind::kBrv;
    case SessionKind::kSyncC: return vv::VectorKind::kCrv;
    case SessionKind::kSyncS: return vv::VectorKind::kSrv;
    case SessionKind::kCompare: break;
  }
  return vv::VectorKind::kBrv;
}

constexpr SessionKind session_kind_of(vv::VectorKind k) {
  switch (k) {
    case vv::VectorKind::kBrv: return SessionKind::kSyncB;
    case vv::VectorKind::kCrv: return SessionKind::kSyncC;
    case vv::VectorKind::kSrv: return SessionKind::kSyncS;
  }
  return SessionKind::kSyncB;
}

// ---- encode helpers --------------------------------------------------------

inline void put_magic(std::vector<std::uint8_t>& out) {
  out.insert(out.end(), std::begin(kMagic), std::end(kMagic));
}
inline void put_hello(std::vector<std::uint8_t>& out, SessionKind kind, std::uint8_t flags,
                      std::uint32_t replica) {
  out.push_back(kCtlHello);
  out.push_back(static_cast<std::uint8_t>(static_cast<std::uint8_t>(kind) | flags));
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(replica >> (8 * i)));
}
inline void put_accept(std::vector<std::uint8_t>& out, AcceptStatus s) {
  out.push_back(kCtlAccept);
  out.push_back(static_cast<std::uint8_t>(s));
}
inline void put_end(std::vector<std::uint8_t>& out) { out.push_back(kCtlEnd); }
inline void put_done(std::vector<std::uint8_t>& out, DoneStatus s) {
  out.push_back(kCtlDone);
  out.push_back(static_cast<std::uint8_t>(s));
}

// ---- incremental stream decoder -------------------------------------------

// Buffers raw socket bytes and yields a typed item per pull: codec messages,
// control records, or kNeedMore while a record sits incomplete at the buffer
// tail. HELLO/ACCEPT reset the element delta chain (session boundary). A
// byte that is neither a codec tag nor a control tag kills the stream
// (kError), as does a codec-level varint overflow.
class StreamDecoder {
 public:
  enum class ItemType : std::uint8_t {
    kNeedMore,
    kMsg,     // a vv::VvMsg
    kMagic,   // connection preamble
    kHello,   // kind/flags + replica
    kAccept,  // status
    kEnd,
    kDone,  // status
    kError,
  };

  struct Item {
    ItemType type{ItemType::kNeedMore};
    vv::VvMsg msg{};
    SessionKind kind{SessionKind::kCompare};
    std::uint8_t flags{0};
    std::uint32_t replica{0};
    std::uint8_t status{0};
  };

  void append(const std::uint8_t* data, std::size_t n);
  Item next();

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  Item pull_control();

  std::vector<std::uint8_t> buf_;
  std::size_t pos_{0};
  vv::FrameDeltaState chain_{};
  std::deque<vv::VvMsg> msgs_;  // decoded ahead by frame_decode_stream
  bool dead_{false};
};

}  // namespace optrep::net
