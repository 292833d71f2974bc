// The protocol wire format: one tagged message struct covering the five
// message types of the paper (Section 3.2) plus the fields the baseline
// schemes need. Keeping a single concrete struct (rather than a class
// hierarchy) keeps the traces easy to read.
//
// A Message is a 56-byte trivially copyable header of scalars: six one-byte
// tags, three 32-bit ids, two 64-bit counters and a Lamport stamp. The
// only non-scalar operands of the protocols — the Use set of a search,
// status or resync reply, plus the allocated set of an advanced-search
// reply — travel as a SetPayload behind the header's 32-bit `sets`
// handle: the sender's environment stores the payload when it sends, the
// receiver reads it through its environment, and the runner frees it once
// the message has been dispatched. So every copy the network makes (a
// delivery closure, a send-window slot, a reorder-ring slot, a paused
// cell's hold) moves 56 bytes, not the sets.
#pragma once

#include <cstdint>
#include <string_view>
#include <type_traits>

#include "cell/grid.hpp"
#include "cell/spectrum.hpp"
#include "net/timestamp.hpp"

namespace dca::net {

/// Top-level message tag (paper Section 3.2), plus the channel-transfer
/// vocabulary of the advanced search comparator (Prakash, Shivaratri &
/// Singhal, PODC'95 — the paper's reference [8], discussed in Section 6).
enum class MsgKind : std::uint8_t {
  kRequest,      // REQUEST(req_type, r, ts_j, j)
  kResponse,     // RESPONSE(res_type, j, ch | Use_j)
  kChangeMode,   // CHANGE_MODE(mode, j)
  kRelease,      // RELEASE(j, r)
  kAcquisition,  // ACQUISITION(acq_type, j, r)
  kTransfer,     // TRANSFER(op, r): allocated-set transfer negotiation
  kHandoff,      // HANDOFF(serial, ends): mobile moved to the destination
                 // cell mid-call; `serial` encodes (call, hop) and
                 // `ts.count` carries the call's absolute end instant.
                 // Handled by the runner, never by allocator nodes.
  kResyncReq,    // RESYNC_REQ(j): j restarted cold and asks for state
  kResyncReply,  // RESYNC_REPLY(j, Use_j, ...): per-scheme state snapshot
};

/// kTransfer sub-operation (the paper's TRANSFER / AGREE / KEEP / RELEASE
/// plus an explicit refusal).
enum class TransferOp : std::uint8_t {
  kRequest = 0,  // c -> owner: may I have allocated-but-idle channel r?
  kAgree = 1,    // owner -> c: r is reserved for you, confirm or abort
  kDeny = 2,     // owner -> c: no (busy, already offered, or not mine)
  kKeep = 3,     // c -> owner: confirmed, I take r
  kAbort = 4,    // c -> owner: aborted, unlock r (the paper's RELEASE leg)
};

/// REQUEST.req_type: the nature of the request.
enum class ReqType : std::uint8_t { kUpdate = 0, kSearch = 1 };

/// RESPONSE.res_type: the nature of the response.
enum class ResType : std::uint8_t {
  kReject = 0,       // deny channel `channel`
  kGrant = 1,        // grant channel `channel`
  kSearchReply = 2,  // payload `use` = responder's Use set (search reply)
  kStatus = 3,       // payload `use` = responder's Use set (mode-change reply)
  // Extension used only by the advanced-update baseline (Dong & Lai TR-48):
  // "you have priority, but the channel is provisionally promised to a
  // younger request" — see Fig. 11 discussion in the paper's Section 6.
  kConditionalGrant = 4,
};

/// ACQUISITION.acq_type: how the announced channel was obtained.
enum class AcqType : std::uint8_t { kNonSearch = 0, kSearch = 1 };

/// Handle of a message's SetPayload in its sender's payload store.
using SetHandle = std::uint32_t;
/// The `sets` value of a message that carries no set.
inline constexpr SetHandle kNoSets = 0xFFFFFFFFu;

/// The set operands a message may carry, kept out of the header: `use` is
/// the sender's Use set (RESPONSE kSearchReply / kStatus, RESYNC_REPLY);
/// advanced search replies also carry the allocated set in `alloc` (with
/// `use` holding its busy subset). Everything else leaves `alloc` empty.
struct SetPayload {
  cell::ChannelSet use;
  cell::ChannelSet alloc;
};

struct Message {
  MsgKind kind = MsgKind::kRequest;
  ReqType req_type = ReqType::kUpdate;
  ResType res_type = ResType::kReject;
  AcqType acq_type = AcqType::kNonSearch;
  /// Transfer negotiation operation (kTransfer only).
  TransferOp transfer_op = TransferOp::kRequest;
  /// CHANGE_MODE operand: 0 = local, 1 = borrowing.
  std::int8_t mode = 0;

  cell::CellId from = cell::kNoCell;
  cell::CellId to = cell::kNoCell;

  /// Channel operand: requested / granted / rejected / released / acquired.
  /// kNoChannel for search requests and failed-search acquisitions.
  cell::ChannelId channel = cell::kNoChannel;

  /// The SetPayload this message carries, or kNoSets. Set by the sending
  /// environment, never by a node; meaningless outside the one delivery
  /// it was stored for, and never part of a trace or a result.
  SetHandle sets = kNoSets;

  /// Serial of the channel-acquisition attempt this message is billed to
  /// (set by the original requester, echoed by responders); 0 = not
  /// attributable to a specific acquisition (e.g. end-of-call RELEASE).
  std::uint64_t serial = 0;

  /// Mode-change wave tag: CHANGE_MODE(1) messages and their kStatus
  /// replies carry the sender's wave counter so a requester collecting
  /// statuses can ignore replies to a stale wave.
  std::uint64_t wave = 0;

  /// Requester's Lamport timestamp (REQUEST only).
  Timestamp ts;

  [[nodiscard]] constexpr std::string_view kind_name() const {
    switch (kind) {
      case MsgKind::kRequest: return "REQUEST";
      case MsgKind::kResponse: return "RESPONSE";
      case MsgKind::kChangeMode: return "CHANGE_MODE";
      case MsgKind::kRelease: return "RELEASE";
      case MsgKind::kAcquisition: return "ACQUISITION";
      case MsgKind::kTransfer: return "TRANSFER";
      case MsgKind::kHandoff: return "HANDOFF";
      case MsgKind::kResyncReq: return "RESYNC_REQ";
      case MsgKind::kResyncReply: return "RESYNC_REPLY";
    }
    return "?";
  }
};

// Every delivery closure, send-window slot, reorder-ring slot and paused
// hold copies the header; keep it small and memcpy-able.
static_assert(sizeof(Message) <= 56, "net::Message grew past its 56-byte header");
static_assert(std::is_trivially_copyable_v<Message>,
              "net::Message must stay trivially copyable");

/// Number of distinct MsgKind values (for counter arrays).
inline constexpr int kNumMsgKinds = 9;

}  // namespace dca::net
