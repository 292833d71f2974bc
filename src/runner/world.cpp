#include "runner/world.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cell/partition.hpp"
#include "runner/conformance.hpp"
#include "runner/node_factory.hpp"
#include "traffic/mobility.hpp"

namespace dca::runner {
namespace {

using cell::CellId;

/// Folds streamed records and trace at most once per simulated second:
/// windows are one lookahead (~ms) wide, so folding every barrier would
/// pay the O(shards + grid) sweep ~10^5 times per run.
constexpr sim::Duration kFoldStride = sim::seconds(1);

[[noreturn]] void reject(const std::string& problem) {
  std::fprintf(stderr, "World: invalid scenario: %s\n", problem.c_str());
  std::abort();
}

/// validate_options runs before any member is built from the config.
const ScenarioConfig& checked(const ScenarioConfig& c) {
  if (const std::string problem = validate_options(c); !problem.empty()) {
    reject(problem);
  }
  return c;
}

net::Latency make_latency(const net::LinkTable& links, const ScenarioConfig& c,
                          const std::vector<net::LinkDelay>& pins) {
  net::Latency latency(links, c.latency, c.latency_jitter, c.seed);
  for (const net::LinkDelay& p : pins) latency.set(p.from, p.to, p.delay);
  return latency;
}

/// Conservative lookahead for the kernel: the least latency floor over the
/// links that actually cross shards. Shard-internal links don't constrain
/// the window (their deliveries never enter an outbox), so a partition
/// that keeps the fast links internal earns a wider window than the global
/// floor. Fault jitter only ever *adds* delay on top of the floor, so it
/// never weakens the bound.
sim::ShardedKernel make_kernel(const ScenarioConfig& c,
                               const cell::HexGrid& grid,
                               const net::LinkTable& links,
                               const net::Latency& latency) {
  std::vector<int> partition =
      cell::make_partition(grid, c.shards, c.partition);
  constexpr sim::Duration kNone = std::numeric_limits<sim::Duration>::max();
  sim::Duration lookahead = kNone;
  for (net::LinkId lid = 0; lid < links.n_links(); ++lid) {
    const auto [from, to] = links.endpoints(lid);
    if (partition[static_cast<std::size_t>(from)] !=
        partition[static_cast<std::size_t>(to)]) {
      lookahead = std::min(lookahead, latency.floor(lid));
    }
  }
  // No cross-shard link at all (one shard): any positive lookahead is
  // safe; use the global floor.
  if (lookahead == kNone) lookahead = latency.min_one_way();
  return sim::ShardedKernel(std::move(partition), c.shards, lookahead,
                            c.threads);
}

bool canonical_before(const metrics::CallDecision& a,
                      const metrics::CallDecision& b) {
  return a.t_decision != b.t_decision ? a.t_decision < b.t_decision
                                      : a.cellId < b.cellId;
}

bool canonical_before(const sim::TraceEvent& a, const sim::TraceEvent& b) {
  return a.t != b.t ? a.t < b.t : a.cell < b.cell;
}

}  // namespace

std::string scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kFca: return "FCA (static)";
    case Scheme::kBasicSearch: return "Basic Search";
    case Scheme::kBasicUpdate: return "Basic Update";
    case Scheme::kAdvancedUpdate: return "Advanced Update";
    case Scheme::kAdvancedSearch: return "Advanced Search";
    case Scheme::kAdaptive: return "Adaptive (proposed)";
  }
  return "?";
}

// -- ShardEnv forwarding ---------------------------------------------------

sim::SimTime World::ShardEnv::now() const { return world->kernel_.now(shard); }
void World::ShardEnv::send(net::Message msg) {
  world->net_send(std::move(msg));
}
void World::ShardEnv::send(net::Message msg, net::SetPayload sets) {
  msg.sets = world->state_of(msg.from).sets.put(std::move(sets));
  world->net_send(std::move(msg));
}
const net::SetPayload& World::ShardEnv::payload(const net::Message& msg) const {
  assert(msg.sets != net::kNoSets && "reading the sets of a message sent without");
  return world->state_of(msg.from).sets[msg.sets];
}
void World::ShardEnv::broadcast(const net::Message& msg,
                                std::span<const CellId> to) {
  world->bill(msg, static_cast<std::uint32_t>(to.size()));
  world->transport_->broadcast(msg, Arrive{world});
}
sim::Duration World::ShardEnv::latency_bound() const {
  return world->latency_bound();
}
void World::ShardEnv::notify_acquired(CellId cellId, std::uint64_t serial,
                                      cell::ChannelId ch, proto::Outcome how,
                                      int attempts) {
  world->notify_acquired(cellId, serial, ch, how, attempts);
}
void World::ShardEnv::notify_blocked(CellId cellId, std::uint64_t serial,
                                     proto::Outcome why, int attempts) {
  world->notify_blocked(cellId, serial, why, attempts);
}
void World::ShardEnv::notify_released(CellId cellId, cell::ChannelId ch) {
  world->notify_released(cellId, ch);
}
void World::ShardEnv::notify_reassigned(CellId cellId, cell::ChannelId from_ch,
                                        cell::ChannelId to_ch) {
  world->notify_reassigned(cellId, from_ch, to_ch);
}
void World::ShardEnv::notify_resynced(CellId cellId, int rounds) {
  world->notify_resynced(cellId, rounds);
}
sim::RngStream& World::ShardEnv::rng(CellId cellId) {
  return world->node_rng_[static_cast<std::size_t>(cellId)];
}
sim::EventId World::ShardEnv::schedule_in(sim::Duration delay,
                                          sim::TimerFn fn) {
  if (delay < 0) delay = 0;
  return world->schedule_local(current, sim::kClassTimer, now() + delay,
                               std::move(fn));
}
void World::ShardEnv::cancel_scheduled(sim::EventId id) {
  world->kernel_.cancel(current, id);
}
void World::ShardEnv::record(const sim::TraceEvent& ev) { world->emit(ev); }

// -- construction ----------------------------------------------------------

World::World(const ScenarioConfig& config, Scheme scheme,
             const traffic::LoadProfile* load,
             const std::vector<net::LinkDelay>& latency_pins)
    : config_(checked(config)),
      scheme_(scheme),
      grid_(config.rows, config.cols, config.interference_radius, config.wrap),
      plan_(config.greedy_plan
                ? cell::ReusePlan::greedy(grid_, config.n_channels)
                : cell::ReusePlan::cluster(grid_, config.n_channels,
                                           config.cluster)),
      links_(grid_),
      latency_(make_latency(links_, config, latency_pins)),
      kernel_(make_kernel(config, grid_, links_, latency_)),
      states_(static_cast<std::size_t>(config.shards)) {
  // A broken reuse plan voids every guarantee downstream; fail fast even
  // in release builds.
  if (const std::string problem = validate_plan(grid_, plan_); !problem.empty()) {
    reject(problem);
  }
  for (int s = 0; s < config_.shards; ++s) {
    states_[static_cast<std::size_t>(s)].env.world = this;
    states_[static_cast<std::size_t>(s)].env.shard = s;
  }
  transport_ = std::make_unique<net::Transport>(kernel_, links_, latency_,
                                                config_.fault, config_.seed);
  transport_->set_receiver(Arrive{this});
  transport_->set_recorder([this](const sim::TraceEvent& e) { emit(e); });

  const auto n = static_cast<std::size_t>(grid_.n_cells());
  truth_.assign(n, cell::ChannelSet(config_.n_channels));
  flags_.reset(n);
  node_rng_.reserve(n);
  for (CellId c = 0; c < grid_.n_cells(); ++c) {
    node_rng_.push_back(sim::RngStream::derive(
        config_.seed, std::uint64_t{0x90de000} + static_cast<std::uint64_t>(c)));
  }

  nodes_.reserve(n);
  for (CellId c = 0; c < grid_.n_cells(); ++c) {
    const proto::NodeContext ctx{c, &grid_, &plan_, &state_of(c).env,
                                 config_.request_timeout, config_.handoff_guard};
    nodes_.push_back(make_node(ctx, scheme_, config_));
  }

  if (config_.fault.pauses()) {
    pause_rng_.reserve(n);
    for (CellId c = 0; c < grid_.n_cells(); ++c) {
      pause_rng_.push_back(sim::RngStream::derive(
          config_.seed,
          std::uint64_t{0x9a05e000} + static_cast<std::uint64_t>(c)));
      schedule_pause_cycle(c, 0);
    }
  }
  if (config_.fault.crashes()) {
    crashes_on_ = true;
    crashed_.assign(n, 0);
    down_since_.assign(n, 0);
    restart_at_.assign(n, 0);
    crash_rng_.reserve(n);
    for (CellId c = 0; c < grid_.n_cells(); ++c) {
      crash_rng_.push_back(sim::RngStream::derive(
          config_.seed,
          std::uint64_t{0xCa45e000} + static_cast<std::uint64_t>(c)));
      schedule_crash_cycle(c, 0);
    }
  }
  if (load != nullptr) {
    double peak_rate_sum = 0.0;
    for (CellId c = 0; c < grid_.n_cells(); ++c) peak_rate_sum += load->max_rate(c);
    if (const std::string problem = validate_load(config_, peak_rate_sum);
        !problem.empty()) {
      reject(problem);
    }
    arrivals_ = traffic::plan_arrivals(grid_.n_cells(), *load,
                                       config_.mean_holding_s, config_.seed,
                                       config_.duration);
    for (CellId c = 0; c < grid_.n_cells(); ++c) schedule_next_arrival(c);
  }

  kernel_.set_pin_threads(config_.pin);
  for (ShardState& st : states_) {
    st.tally = metrics::MessageTally(arrivals_.calls,
                                     /*per_kind=*/!config_.stream_metrics);
  }
  if (config_.stream_metrics) {
    builder_.emplace(latency_.max_one_way(), config_.warmup);
  }
  if (config_.stream_metrics || config_.shards > 1) {
    kernel_.set_window_hook([this](sim::SimTime frontier) {
      hand_back_sets();
      if (builder_) on_window(frontier);
    });
  }
}

World::~World() = default;

void World::set_recorder(sim::TraceRecorder* rec) {
  trace_ = rec;
  conform_.reset();
  if (rec != nullptr && builder_) {
    conform_ = std::make_unique<ConformanceChecker>(grid_, config_.n_channels);
  }
}

void World::emit(const sim::TraceEvent& e) {
  if (trace_ != nullptr) state_of(e.cell).trace.push_back(e);
}

// -- scheduling ------------------------------------------------------------

template <typename F>
sim::EventId World::schedule_local(CellId owner, std::uint8_t klass,
                                   sim::SimTime when, F&& fn) {
  auto wrapped = [this, owner, f = std::forward<F>(fn)]() mutable {
    state_of(owner).env.current = owner;
    f();
    flag_check(owner);
  };
  static_assert(sim::EventFn::fits_inline<decltype(wrapped)>(),
                "dispatch wrapper must fit EventFn's inline buffer; grow "
                "sim::kEventFnCapacity if the wrapped closure grew");
  return kernel_.schedule_local(owner, klass, when, std::move(wrapped));
}

void World::flag_check(CellId c) {
  const auto& node = *nodes_[static_cast<std::size_t>(c)];
  flags_.observe(c, now_of(c), node.is_borrowing(), node.is_searching());
}

// -- traffic ---------------------------------------------------------------

void World::schedule_next_arrival(CellId c) {
  const auto& chain = arrivals_.by_cell[static_cast<std::size_t>(c)];
  if (chain.empty()) return;
  (void)schedule_local(c, sim::kClassArrival, chain.front().t, [this, c]() {
    auto& pending = arrivals_.by_cell[static_cast<std::size_t>(c)];
    const traffic::Candidate cand = pending.front();
    pending.pop_front();
    if (cand.id != 0) {
      open_call(c, static_cast<std::uint64_t>(cand.id), cand.id, cand.holding,
                /*is_handoff=*/false);
    }
    schedule_next_arrival(c);
  });
}

void World::submit_call(const traffic::CallSpec& spec) {
  const CellId c = spec.cell;
  state_of(c).env.current = c;
  open_call(c, traffic::mobility::encode_serial(spec.id, 0), spec.id,
            spec.holding, /*is_handoff=*/false);
  flag_check(c);
}

void World::open_call(CellId c, std::uint64_t serial, traffic::CallId call,
                      sim::Duration holding, bool is_handoff) {
  ShardState& st = state_of(c);
  st.pending[serial] = PendingCall{call, holding, is_handoff};
  st.collector.open(serial, call, c, now_of(c), is_handoff);
  trace_call_event(sim::TraceKind::kRequest, c, cell::kNoChannel, serial);
  if (crashes_on_ && down_now(c)) {
    // Graceful degradation: a crashed or resyncing MSS admits nothing.
    notify_blocked(c, serial, proto::Outcome::kBlockedDown, 0);
    return;
  }
  nodes_[static_cast<std::size_t>(c)]->request_channel(serial);
}

void World::bill(const net::Message& msg, std::uint32_t n) {
  // HANDOFF carries the *next* leg's serial, whose record does not open
  // until the message lands; it is runner traffic, billed to no call.
  if (msg.serial == 0 || msg.kind == net::MsgKind::kHandoff) return;
  state_of(msg.from).tally.add(msg.serial, msg.kind, n);
}

void World::net_send(net::Message&& msg) {
  bill(msg, 1);
  transport_->send(std::move(msg), Arrive{this});
}

void World::dispatch_to_node(const net::Message& msg) {
  state_of(msg.to).env.current = msg.to;
  if (msg.kind == net::MsgKind::kHandoff) {
    // HANDOFF is runner-level state migration, not protocol traffic:
    // allocator nodes and their Lamport clocks never see it.
    handoff_arrival(msg);
  } else if (!crashes_on_ ||
             crashed_[static_cast<std::size_t>(msg.to)] == 0) {
    // A crashed MSS loses inbound protocol traffic permanently (the NIC
    // acks, the process is gone); senders resolve via their timeout paths.
    // A *resyncing* node receives normally — it must, to collect its
    // resync replies — it just admits no new traffic yet.
    nodes_[static_cast<std::size_t>(msg.to)]->on_message(msg);
  }
  // Every delivery of a message sent with sets ends here exactly once:
  // handed to the node, dropped by a crashed MSS, or flushed from a paused
  // cell's hold (the reliable transport filters duplicate frames first).
  if (msg.sets != net::kNoSets) release_sets(msg);
  flag_check(msg.to);
}

void World::release_sets(const net::Message& msg) {
  const int owner = kernel_.shard_of(msg.from);
  const int here = kernel_.shard_of(msg.to);
  if (owner == here) {
    states_[static_cast<std::size_t>(owner)].sets.release(msg.sets);
  } else {
    // The owner shard may be putting into its pool right now; only the
    // barrier, with every worker parked, may touch its free list.
    states_[static_cast<std::size_t>(here)].hand_back.emplace_back(owner,
                                                                  msg.sets);
  }
}

void World::hand_back_sets() {
  for (ShardState& st : states_) {
    for (const auto& [owner, h] : st.hand_back) {
      states_[static_cast<std::size_t>(owner)].sets.release(h);
    }
    st.hand_back.clear();
  }
}

void World::handoff_arrival(const net::Message& msg) {
  const sim::SimTime t = now_of(msg.to);
  const auto ends = static_cast<sim::SimTime>(msg.ts.count);
  const auto hop =
      static_cast<std::int64_t>(traffic::mobility::hop_of(msg.serial));
  trace_handoff(sim::TraceKind::kHandoffRecv, msg.to, msg.from, msg.serial,
                hop, ends);
  if (ends <= t) return;  // call expired while in transit
  const auto call =
      static_cast<traffic::CallId>(traffic::mobility::call_of(msg.serial));
  open_call(msg.to, msg.serial, call, ends - t, /*is_handoff=*/true);
}

// -- fault timelines -------------------------------------------------------
//
// Both timelines are pure functions of (config, seed): each cell draws
// exponential gaps and outage lengths from its own derived stream, and no
// onset lands past the arrival horizon, so the drain phase is pause- and
// crash-free and quiescence stays reachable. The events are kClassControl,
// owned by the affected cell.

void World::schedule_pause_cycle(CellId c, sim::SimTime from_time) {
  auto& rng = pause_rng_[static_cast<std::size_t>(c)];
  const double gap_s =
      rng.exponential_mean(60.0 / config_.fault.pause_rate_per_min);
  const sim::SimTime at = from_time + sim::from_seconds(gap_s);
  if (at >= config_.duration) return;
  const double len_s = rng.exponential_mean(config_.fault.pause_mean_s);
  const sim::Duration len = std::max<sim::Duration>(sim::from_seconds(len_s), 1);
  (void)schedule_local(c, sim::kClassControl, at, [this, c, at, len]() {
    transport_->pause(c);
    (void)schedule_local(c, sim::kClassControl, at + len, [this, c, at, len]() {
      transport_->resume(c);
      schedule_pause_cycle(c, at + len);
    });
  });
}

void World::schedule_crash_cycle(CellId c, sim::SimTime from_time) {
  auto& rng = crash_rng_[static_cast<std::size_t>(c)];
  const double gap_s =
      rng.exponential_mean(60.0 / config_.fault.crash_rate_per_min);
  const sim::SimTime at = from_time + sim::from_seconds(gap_s);
  if (at >= config_.duration) return;
  const double len_s = rng.exponential_mean(config_.fault.crash_mean_s);
  const sim::Duration len = std::max<sim::Duration>(sim::from_seconds(len_s), 1);
  (void)schedule_local(c, sim::kClassControl, at, [this, c, at, len]() {
    crash_cell(c);
    (void)schedule_local(c, sim::kClassControl, at + len, [this, c, at, len]() {
      restart_cell(c);
      schedule_crash_cycle(c, at + len);
    });
  });
}

void World::crash_cell(CellId c) {
  assert(crashed_[static_cast<std::size_t>(c)] == 0 && "crash while down");
  crashed_[static_cast<std::size_t>(c)] = 1;
  ShardState& st = state_of(c);
  ++st.avail.crashes;
  down_since_[static_cast<std::size_t>(c)] = now_of(c);

  // Live calls at c die with the MSS. Torn down in serial order (a
  // canonical order), with no protocol messages: the neighbours learn of
  // the crash from the silence (timeouts) and the eventual resync round,
  // exactly like a real outage.
  std::vector<std::uint64_t> torn;
  for (const auto& [serial, call] : st.active) {
    if (call.cellId == c) torn.push_back(serial);
  }
  std::sort(torn.begin(), torn.end());
  trace_call_event(sim::TraceKind::kCrash, c, cell::kNoChannel, 0,
                   static_cast<std::int64_t>(torn.size()));
  for (const std::uint64_t serial : torn) {
    const auto it = st.active.find(serial);
    const cell::ChannelId ch = it->second.channel;
    st.active.erase(it);
    notify_released(c, ch);  // ground truth + usage + kRelease trace
  }

  // Wipe the allocator's volatile state; requests it was serving or
  // queueing resolve as blocked-down through the runner's own path.
  const std::vector<std::uint64_t> lost =
      nodes_[static_cast<std::size_t>(c)]->crash_reset();
  for (const std::uint64_t serial : lost) {
    notify_blocked(c, serial, proto::Outcome::kBlockedDown, 0);
  }
}

void World::restart_cell(CellId c) {
  assert(crashed_[static_cast<std::size_t>(c)] != 0 && "restart while up");
  crashed_[static_cast<std::size_t>(c)] = 0;
  state_of(c).avail.down_us += static_cast<std::uint64_t>(
      now_of(c) - down_since_[static_cast<std::size_t>(c)]);
  restart_at_[static_cast<std::size_t>(c)] = now_of(c);
  trace_call_event(sim::TraceKind::kRestart, c, cell::kNoChannel, 0);
  nodes_[static_cast<std::size_t>(c)]->begin_resync();
}

void World::notify_resynced(CellId cellId, int rounds) {
  metrics::Availability& avail = state_of(cellId).avail;
  ++avail.resyncs;
  avail.resync_us += static_cast<std::uint64_t>(
      now_of(cellId) - restart_at_[static_cast<std::size_t>(cellId)]);
  avail.resync_rounds += static_cast<std::uint64_t>(rounds);
  avail.max_resync_rounds =
      std::max(avail.max_resync_rounds, static_cast<std::uint64_t>(rounds));
  trace_call_event(sim::TraceKind::kResyncDone, cellId, cell::kNoChannel, 0,
                   static_cast<std::int64_t>(rounds));
}

// -- call lifecycle --------------------------------------------------------

void World::trace_call_event(sim::TraceKind kind, CellId cellId,
                             cell::ChannelId ch, std::uint64_t serial,
                             std::int64_t a) {
  if (trace_ == nullptr) return;
  sim::TraceEvent e;
  e.kind = kind;
  e.t = now_of(cellId);
  e.cell = static_cast<std::int32_t>(cellId);
  e.channel = static_cast<std::int32_t>(ch);
  e.serial = serial;
  e.a = a;
  emit(e);
}

void World::trace_handoff(sim::TraceKind kind, CellId cellId, CellId peer,
                          std::uint64_t serial, std::int64_t hop,
                          sim::SimTime ends) {
  if (trace_ == nullptr) return;
  sim::TraceEvent e;
  e.kind = kind;
  e.t = now_of(cellId);
  e.cell = static_cast<std::int32_t>(cellId);
  e.peer = static_cast<std::int32_t>(peer);
  e.serial = serial;
  e.a = hop;
  e.b = static_cast<std::int64_t>(ends);
  emit(e);
}

void World::accumulate_usage(ShardState& st, sim::SimTime t) {
  st.usage_integral += (t - st.last_usage_change) * st.channels_in_use;
  st.last_usage_change = t;
}

void World::check_reuse(CellId cellId, cell::ChannelId ch,
                        cell::ChannelId from_ch) {
  const int s = kernel_.shard_of(cellId);
  for (const CellId j : grid_.interference(cellId)) {
    if (kernel_.shard_of(j) != s) continue;
    if (truth_[static_cast<std::size_t>(j)].contains(ch)) {
      ++state_of(cellId).violations;
      std::fprintf(stderr,
                   "[T1 VIOLATION] t=%lld cell=%d %s %d->%d conflicts with "
                   "cell=%d (primary-of-acquirer=%d primary-of-holder=%d "
                   "dist=%d)\n",
                   static_cast<long long>(now_of(cellId)), cellId,
                   from_ch == cell::kNoChannel ? "acquire" : "reassign",
                   from_ch, ch, j,
                   static_cast<int>(plan_.is_primary(cellId, ch)),
                   static_cast<int>(plan_.is_primary(j, ch)),
                   grid_.distance(cellId, j));
      assert(false && "co-channel interference: Theorem 1 violated");
    }
  }
}

void World::notify_acquired(CellId cellId, std::uint64_t serial,
                            cell::ChannelId ch, proto::Outcome how,
                            int attempts) {
  ShardState& st = state_of(cellId);
  const sim::SimTime t = now_of(cellId);
  check_reuse(cellId, ch, cell::kNoChannel);
  truth_[static_cast<std::size_t>(cellId)].insert(ch);
  accumulate_usage(st, t);
  ++st.channels_in_use;
  trace_call_event(sim::TraceKind::kAcquire, cellId, ch, serial,
                   static_cast<std::int64_t>(how));

  // Neighbour borrow/search samples are reconstructed from the flag
  // timelines at merge time; only the self-searching term (taken for
  // acquisitions only) is sampled live.
  const int searching_self =
      nodes_[static_cast<std::size_t>(cellId)]->is_searching() ? 1 : 0;
  st.collector.close(serial, t, how, attempts, 0, searching_self);

  const auto it = st.pending.find(serial);
  assert(it != st.pending.end());
  const PendingCall pc = it->second;
  st.pending.erase(it);

  const sim::SimTime ends = t + pc.remaining;
  st.active[serial] = ActiveCall{cellId, ch, ends};
  sim::SimTime next_event = ends;
  if (config_.mean_dwell_s > 0.0) {
    // Dwell is a pure function of (seed, serial), the same draw on
    // whichever shard hosts the call.
    const sim::Duration dwell =
        traffic::mobility::dwell(config_.seed, serial, config_.mean_dwell_s);
    if (t + dwell < ends) next_event = t + dwell;
  }
  (void)schedule_local(cellId, sim::kClassProgress, next_event,
                       [this, serial, cellId]() { end_call(serial, cellId); });
}

void World::end_call(std::uint64_t serial, CellId cellId) {
  ShardState& st = state_of(cellId);
  const auto it = st.active.find(serial);
  if (it == st.active.end()) return;  // torn down by a crash
  const ActiveCall state = it->second;
  st.active.erase(it);
  nodes_[static_cast<std::size_t>(cellId)]->release_channel(state.channel,
                                                            serial);

  if (now_of(cellId) >= state.ends) return;  // call completed normally

  // Handoff: the mobile moved to a random neighbouring cell mid-call. The
  // call state (identity, absolute end time) rides a HANDOFF message over
  // the ordinary transport, which is what carries it across shard
  // boundaries; the destination issues the fresh channel request when it
  // lands.
  const auto neigh = grid_.neighbors(cellId);
  if (neigh.empty()) return;
  const std::uint64_t hop = traffic::mobility::hop_of(serial) + 1;
  const CellId dest = neigh[traffic::mobility::pick_neighbor(
      config_.seed, serial, neigh.size())];
  const std::uint64_t new_serial =
      traffic::mobility::encode_serial(traffic::mobility::call_of(serial), hop);
  trace_handoff(sim::TraceKind::kHandoffLeave, cellId, dest, new_serial,
                static_cast<std::int64_t>(hop), state.ends);
  net::Message msg;
  msg.kind = net::MsgKind::kHandoff;
  msg.from = cellId;
  msg.to = dest;
  msg.serial = new_serial;
  msg.ts.count = static_cast<std::uint64_t>(state.ends);
  net_send(std::move(msg));
}

void World::notify_blocked(CellId cellId, std::uint64_t serial,
                           proto::Outcome why, int attempts) {
  ShardState& st = state_of(cellId);
  st.collector.close(serial, now_of(cellId), why, attempts, 0, 0);
  st.pending.erase(serial);
  trace_call_event(sim::TraceKind::kBlock, cellId, cell::kNoChannel, serial,
                   static_cast<std::int64_t>(why));
}

void World::notify_released(CellId cellId, cell::ChannelId ch) {
  ShardState& st = state_of(cellId);
  assert(truth_[static_cast<std::size_t>(cellId)].contains(ch));
  truth_[static_cast<std::size_t>(cellId)].erase(ch);
  accumulate_usage(st, now_of(cellId));
  --st.channels_in_use;
  assert(st.channels_in_use >= 0);
  trace_call_event(sim::TraceKind::kRelease, cellId, ch, 0);
}

void World::notify_reassigned(CellId cellId, cell::ChannelId from_ch,
                              cell::ChannelId to_ch) {
  ShardState& st = state_of(cellId);
  check_reuse(cellId, to_ch, from_ch);
  assert(truth_[static_cast<std::size_t>(cellId)].contains(from_ch));
  truth_[static_cast<std::size_t>(cellId)].erase(from_ch);
  truth_[static_cast<std::size_t>(cellId)].insert(to_ch);
  ++st.reassignments;
  // serial 0 = reassignment, no open request attached (see checker).
  trace_call_event(sim::TraceKind::kRelease, cellId, from_ch, 0);
  trace_call_event(sim::TraceKind::kAcquire, cellId, to_ch, 0);
  for (auto& [serial, call] : st.active) {
    if (call.cellId == cellId && call.channel == from_ch) {
      call.channel = to_ch;
      return;
    }
  }
  assert(false && "reassignment of a channel with no active call");
}

// -- run & merge -----------------------------------------------------------

void World::run_to_quiescence() {
  kernel_.run_to_quiescence();
  // Shards stop at their own last event; align every clock on the latest
  // so a scripted call offered next sees one "now" on every shard.
  kernel_.run_until(kernel_.max_now());
}

void World::run() {
  kernel_.run_until(config_.duration);
  run_to_quiescence();
}

std::uint64_t World::interference_violations() const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.violations;
  return n;
}

std::uint64_t World::reassignments() const {
  std::uint64_t n = 0;
  for (const ShardState& st : states_) n += st.reassignments;
  return n;
}

std::size_t World::active_calls() const {
  std::size_t n = 0;
  for (const ShardState& st : states_) n += st.active.size();
  return n;
}

std::size_t World::live_set_payloads() const {
  std::size_t n = 0;
  for (const ShardState& st : states_) n += st.sets.live();
  return n;
}

std::size_t World::set_payload_peak() const {
  std::size_t n = 0;
  for (const ShardState& st : states_) n += st.sets.high_water();
  return n;
}

bool World::quiescent() const {
  for (const ShardState& st : states_) {
    if (!st.pending.empty()) return false;
    if (st.collector.open_count() != 0) return false;
  }
  for (const auto& n : nodes_) {
    if (n->busy() || n->queued() != 0 || n->resyncing()) return false;
  }
  return true;
}

// Streaming fold: runs inside the kernel's window hook, on exactly one
// worker while the others are parked at the barrier. Window monotonicity
// gives the correctness argument: every event executed so far fired at
// when < frontier, so every closed record has t_decision < frontier and
// every buffered trace entry has t < frontier — the drains below take
// *complete* per-shard buffers, and everything a later fold drains is
// >= this frontier. Per-batch canonical sorting + concatenation across
// folds therefore reproduces the end-of-run global merge exactly.
void World::on_window(sim::SimTime frontier) {
  if (frontier < next_fold_) return;
  next_fold_ = frontier + kFoldStride;
  fold_to(frontier);
}

void World::fold_to(sim::SimTime frontier) {
  std::vector<metrics::CallDecision> batch;
  for (ShardState& st : states_) {
    std::vector<metrics::CallDecision> part =
        st.collector.drain_closed_before(frontier);
    batch.insert(batch.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  if (!batch.empty()) {
    // Equal (t_decision, cell) keys always share a shard, so the stable
    // sort reproduces the canonical close order within the batch.
    std::stable_sort(
        batch.begin(), batch.end(),
        [](const metrics::CallDecision& a, const metrics::CallDecision& b) {
          return canonical_before(a, b);
        });
    // Neighbour samples need timeline entries at or before each close —
    // resolve them *before* pruning.
    FlagTimelines::Sampler sampler(flags_, grid_);
    for (metrics::CallDecision& r : batch) {
      sampler.apply(r);
      if (builder_->add_core(r)) {
        fold_order_.emplace_back(
            r.serial, metrics::AggregateBuilder::acquired_outcome(r.outcome));
      }
    }
  }
  // Every remaining record closes at >= frontier, so the earliest future
  // flags query bounds at frontier - 1; prune_before keeps exactly the
  // suffix those queries can resolve.
  flags_.prune_before(frontier);

  if (trace_ != nullptr) {
    std::vector<sim::TraceEvent> events;
    for (ShardState& st : states_) {
      events.insert(events.end(), st.trace.begin(), st.trace.end());
      st.trace.clear();
    }
    emit_trace(std::move(events));
  }
}

void World::emit_trace(std::vector<sim::TraceEvent> events) {
  // Every event is recorded on shard_of(event.cell) in execution order, so
  // equal (t, cell) keys share a shard and the stable sort keeps their
  // execution order.
  std::stable_sort(events.begin(), events.end(),
                   [](const sim::TraceEvent& a, const sim::TraceEvent& b) {
                     return canonical_before(a, b);
                   });
  for (const sim::TraceEvent& e : events) {
    if (conform_) conform_->feed(e);
    trace_->emit(e);
  }
}

template <typename F>
void World::for_each_record(F&& f) const {
  // K-way merge by (t_decision, cell): each shard closes its records in
  // execution order, which is canonical order (scripted calls close in
  // script order), so no record is sorted. Each record is completed on its
  // way out: the message counts every shard billed to its serial, then the
  // neighbour samples.
  FlagTimelines::Sampler sampler(flags_, grid_);
  std::vector<std::size_t> pos(states_.size(), 0);
  for (;;) {
    const metrics::CallDecision* next = nullptr;
    std::size_t from = 0;
    for (std::size_t s = 0; s < states_.size(); ++s) {
      const auto& recs = states_[s].collector.records();
      if (pos[s] == recs.size()) continue;
      if (next == nullptr || canonical_before(recs[pos[s]], *next)) {
        next = &recs[pos[s]];
        from = s;
      }
    }
    if (next == nullptr) break;
    ++pos[from];
    metrics::CallRecord rec{*next};
    for (const ShardState& st : states_) st.tally.add_to(rec);
    sampler.apply(rec);
    f(rec);
  }
}

std::vector<metrics::CallRecord> World::records() const {
  assert(!builder_ && "a streaming run folds its records away");
  std::vector<metrics::CallRecord> out;
  for_each_record([&out](const metrics::CallRecord& r) { out.push_back(r); });
  return out;
}

RunResult World::result() {
  RunResult out;
  out.scheme = scheme_;

  if (builder_) {
    // Drain whatever closed after the last stride fold (the quiescence
    // tail runs past `duration`, so use an unbounded frontier), then
    // replay the two deferred message Summaries in fold order with the
    // per-serial totals summed over the shards' tallies — the only
    // Summaries whose inputs are unknown at fold time.
    fold_to(sim::kTimeNever);
    for (const auto& [serial, acquired] : fold_order_) {
      std::uint32_t total = 0;
      for (const ShardState& st : states_) total += st.tally.total(serial);
      builder_->add_messages(total, acquired);
    }
    out.agg = builder_->finish();
  } else {
    metrics::AggregateBuilder builder(latency_.max_one_way(), config_.warmup);
    [[maybe_unused]] metrics::CallDecision last;
    for_each_record([&](const metrics::CallRecord& r) {
      assert((last.serial == 0 || !canonical_before(r, last)) &&
             "each shard closes its records in (t, cell) order");
      last = r;
      builder.add(r);
    });
    out.agg = builder.finish();
  }

  out.total_messages = transport_->total_sent();
  out.cross_shard_messages = transport_->cross_shard_sent();
  for (int k = 0; k < net::kNumMsgKinds; ++k) {
    out.messages_by_kind[static_cast<std::size_t>(k)] =
        transport_->sent_of(static_cast<net::MsgKind>(k));
  }
  out.transport = transport_->stats();
  out.transport_bytes = transport_->footprint();
  if (crashes_on_) {
    // Outages and resyncs still open when the run stopped count up to
    // that instant. run() drains every restart and resync, so it has none.
    for (CellId c = 0; c < grid_.n_cells(); ++c) {
      const auto i = static_cast<std::size_t>(c);
      if (crashed_[i] != 0) {
        out.availability.down_us +=
            static_cast<std::uint64_t>(now_of(c) - down_since_[i]);
      } else if (nodes_[i]->resyncing()) {
        out.availability.resync_us +=
            static_cast<std::uint64_t>(now_of(c) - restart_at_[i]);
      }
    }
  }
  std::int64_t usage = 0;
  for (const ShardState& st : states_) {
    out.violations += st.violations;
    out.availability.merge(st.avail);
    usage += st.usage_integral;
    if (st.last_usage_change < config_.duration) {
      usage += (config_.duration - st.last_usage_change) * st.channels_in_use;
    }
  }
  out.offered_calls = arrivals_.calls;
  out.carried_erlangs = config_.duration > 0
                            ? static_cast<double>(usage) /
                                  static_cast<double>(config_.duration)
                            : 0.0;
  out.executed_events = kernel_.executed();
  out.quiescent = quiescent();

  if (trace_ != nullptr) {
    if (!builder_) {
      std::vector<sim::TraceEvent> events;
      for (ShardState& st : states_) {
        events.insert(events.end(), st.trace.begin(), st.trace.end());
        st.trace.clear();
      }
      emit_trace(std::move(events));
    }
    sim::TraceEvent end;
    end.kind = sim::TraceKind::kRunEnd;
    end.t = kernel_.max_now();
    end.a = out.quiescent ? 1 : 0;
    end.b = static_cast<std::int64_t>(active_calls());
    if (conform_) conform_->feed(end);
    trace_->emit(end);
  }
  if (conform_) {
    const ConformanceReport rep = conform_->finish();
    out.conformance_checked = true;
    out.conformance_violations = rep.violations.size();
    if (!rep.ok()) {
      std::fprintf(stderr, "[conformance] %s\n", rep.to_string().c_str());
    }
  }
  return out;
}

}  // namespace dca::runner
