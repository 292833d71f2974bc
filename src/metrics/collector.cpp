#include "metrics/collector.hpp"

#include <cassert>
#include <cstdint>
#include <numeric>

namespace dca::metrics {

void Collector::open(std::uint64_t serial, traffic::CallId call, cell::CellId cellId,
                     sim::SimTime now, bool is_handoff) {
  assert(serial != 0);
  CallDecision rec;
  rec.serial = serial;
  rec.call = call;
  rec.cellId = cellId;
  rec.is_handoff = is_handoff;
  rec.t_request = now;
  const auto [it, inserted] = open_.emplace(serial, rec);
  (void)it;
  assert(inserted && "serials are unique");
}

void Collector::close(std::uint64_t serial, sim::SimTime now, proto::Outcome outcome,
                      int attempts, int borrowing_neighbors, int searching_neighbors) {
  const auto it = open_.find(serial);
  assert(it != open_.end());
  CallDecision rec = it->second;
  open_.erase(it);
  rec.t_decision = now;
  rec.outcome = outcome;
  rec.attempts = attempts;
  rec.borrowing_neighbors = borrowing_neighbors;
  rec.searching_neighbors = searching_neighbors;
  closed_.push_back(rec);
}

std::vector<CallDecision> Collector::drain_closed_before(
    sim::SimTime frontier) {
  auto split = closed_.begin();
  while (split != closed_.end() && split->t_decision < frontier) ++split;
  std::vector<CallDecision> out(closed_.begin(), split);
  closed_.erase(closed_.begin(), split);
  return out;
}

MessageTally::MessageTally(std::uint64_t dense, bool per_kind)
    : width_(per_kind ? static_cast<std::size_t>(net::kNumMsgKinds) : 1),
      dense_(dense),
      counts_(static_cast<std::size_t>(dense) * width_, 0) {}

std::size_t MessageTally::other_row(std::uint64_t serial) {
  const auto next = static_cast<std::uint32_t>(counts_.size() / width_);
  const auto [it, fresh] = other_.try_emplace(serial, next);
  if (fresh) counts_.resize(counts_.size() + width_, 0);
  return it->second;
}

const std::uint32_t* MessageTally::find(std::uint64_t serial) const {
  std::size_t row = static_cast<std::size_t>(serial - 1);
  if (serial - 1 >= dense_) {
    const auto it = other_.find(serial);
    if (it == other_.end()) return nullptr;
    row = it->second;
  }
  return &counts_[row * width_];
}

void MessageTally::add_to(CallRecord& r) const {
  assert(width_ == r.messages.size());
  if (const std::uint32_t* row = find(r.serial)) {
    for (std::size_t k = 0; k < width_; ++k) r.messages[k] += row[k];
  }
}

std::uint32_t MessageTally::total(std::uint64_t serial) const {
  const std::uint32_t* row = find(serial);
  return row == nullptr ? 0 : std::accumulate(row, row + width_, 0u);
}

bool AggregateBuilder::add_core(const CallDecision& r) {
  if (r.t_request < warmup_) return false;
  ++a_.offered;
  if (r.is_handoff) ++a_.handoff_offered;
  a_.attempts.add(r.attempts);
  switch (r.outcome) {
    case proto::Outcome::kAcquiredLocal:
      ++n_local_;
      break;
    case proto::Outcome::kAcquiredUpdate:
      ++n_update_;
      sum_attempts_update_ += r.attempts;
      break;
    case proto::Outcome::kAcquiredSearch:
      ++n_search_;
      sum_searching_ += r.searching_neighbors;
      ++n_search_samples_;
      break;
    case proto::Outcome::kBlockedNoChannel:
      ++a_.blocked;
      if (r.is_handoff) ++a_.handoff_failures;
      return true;
    case proto::Outcome::kBlockedStarved:
      ++a_.starved;
      if (r.is_handoff) ++a_.handoff_failures;
      return true;
    case proto::Outcome::kBlockedTimeout:
      ++a_.timed_out;
      if (r.is_handoff) ++a_.handoff_failures;
      return true;
    case proto::Outcome::kBlockedDown:
      ++a_.downed;
      if (r.is_handoff) ++a_.handoff_failures;
      return true;
  }
  ++a_.acquired;
  sum_borrowing_ += r.borrowing_neighbors;
  a_.delay_us.add(static_cast<double>(r.delay()));
  a_.delay_in_T.add(T_ > 0 ? static_cast<double>(r.delay()) / static_cast<double>(T_)
                           : 0.0);
  return true;
}

void AggregateBuilder::add_messages(std::uint32_t total, bool acquired) {
  a_.messages_per_call.add(static_cast<double>(total));
  if (acquired) a_.messages_acquired.add(static_cast<double>(total));
}

Aggregate AggregateBuilder::finish() const {
  Aggregate a = a_;
  if (a.acquired > 0) {
    const auto acq = static_cast<double>(a.acquired);
    a.xi1 = static_cast<double>(n_local_) / acq;
    a.xi2 = static_cast<double>(n_update_) / acq;
    a.xi3 = static_cast<double>(n_search_) / acq;
    a.mean_borrowing_neighbors = sum_borrowing_ / acq;
  }
  if (n_update_ > 0)
    a.mean_update_attempts =
        sum_attempts_update_ / static_cast<double>(n_update_);
  if (n_search_samples_ > 0)
    a.mean_searching_neighbors =
        sum_searching_ / static_cast<double>(n_search_samples_);
  return a;
}

Aggregate aggregate_records(const std::vector<CallRecord>& records,
                            sim::Duration T, sim::SimTime warmup) {
  AggregateBuilder b(T, warmup);
  for (const CallRecord& r : records) b.add(r);
  return b.finish();
}

}  // namespace dca::metrics
