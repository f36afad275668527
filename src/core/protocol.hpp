// RTDS protocol messages (Figure 1 flow).
//
// Payloads travel as MessageBody (a closed variant, core/messages.hpp)
// through the delivery core (sim/network.hpp); immutable bulky data (the
// job's DAG, the trial mapping) is shared via shared_ptr-to-const so a
// broadcast to the ACS does not copy it per member — the simulated network
// still charges the full per-hop message cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/trial_mapping.hpp"
#include "dag/dag.hpp"
#include "net/topology.hpp"

namespace rtds {

/// Message categories for transport accounting (E1 breaks these out).
enum MsgCategory : int {
  kMsgEnroll = 1,
  kMsgEnrollReply = 2,
  kMsgUnlock = 3,
  kMsgValidate = 4,
  kMsgValidateReply = 5,
  kMsgDispatch = 6,
  kMsgDispatchAck = 7,
};

/// Stable name of any message category in the tree (protocol, baseline
/// or APSP; "catN" for an unnamed one) — the one name table, kept beside
/// the accounting in sim/network.cpp. Process-lived.
const char* msg_category_name(int category);

/// "Not assigned to any logical processor" marker in dispatch messages.
inline constexpr std::uint32_t kNoLogical = static_cast<std::uint32_t>(-1);

/// §8 — initiator k asks a PCS member to enroll for a job. The deadline is
/// included so the member can report its surplus over the job's own
/// scheduling window (the paper's "observational window" is unspecified; a
/// job-relative window makes the surplus actually predictive — ablated as
/// RtdsConfig::job_window_surplus).
struct EnrollRequest {
  JobId job = 0;
  Time deadline = 0.0;
  std::uint64_t seq = 0;  ///< per-(sender,receiver) dedup sequence (§12)
};

/// §8 — enrolled site reports its surplus. `accepted == false` is the Nack
/// enrollment policy's "I am locked" reply (see DESIGN.md fidelity notes).
struct EnrollReply {
  JobId job = 0;
  bool accepted = false;
  double surplus = 0.0;
  std::uint64_t seq = 0;
};

/// §8/§10/§11 — releases the receiver's lock for this job.
struct UnlockMsg {
  JobId job = 0;
  std::uint64_t seq = 0;
};

/// §10 — the initiator broadcasts the Trial-Mapping M to the ACS.
struct ValidateRequest {
  JobId job = 0;
  std::shared_ptr<const Job> job_data;
  std::shared_ptr<const TrialMapping> mapping;
  std::uint64_t seq = 0;
};

/// §10 — a site lists the logical processors it can endorse.
struct ValidateReply {
  JobId job = 0;
  std::vector<std::uint32_t> endorsable;
  std::uint64_t seq = 0;
};

/// §11 — the permutation + task codes. A receiver with logical ==
/// kNoLogical is not involved and simply unlocks.
struct DispatchMsg {
  JobId job = 0;
  std::uint32_t logical = kNoLogical;
  std::shared_ptr<const Job> job_data;
  std::shared_ptr<const TrialMapping> mapping;
  std::uint64_t seq = 0;
};

/// §12 hardening — explicit receipt for a DispatchMsg, the one protocol
/// message with no reply of its own. Only sent when retransmission is
/// enabled (RtdsConfig::retransmit); the initiator cancels the dispatch's
/// retry timer on the first ack.
struct DispatchAck {
  JobId job = 0;
  std::uint64_t seq = 0;
};

}  // namespace rtds
