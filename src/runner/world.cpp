#include "runner/world.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
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

/// Conservative lookahead for the kernel: the minimum latency floor over
/// the links that actually cross shards. Shard-internal links don't
/// constrain the window (their deliveries never enter an outbox), so a
/// partition that keeps the slow links internal earns a wider window than
/// the global min_one_way(). Fault jitter only ever *adds* delay on top
/// of the model's floor, so it never weakens the bound.
sim::Duration cross_shard_lookahead(const net::LinkTable& links,
                                    const net::LatencyModel& latency,
                                    const std::vector<int>& partition) {
  sim::Duration floor_min = 0;
  bool any = false;
  for (net::LinkId lid = 0; lid < links.n_links(); ++lid) {
    const auto [from, to] = links.endpoints(lid);
    if (partition[static_cast<std::size_t>(from)] ==
        partition[static_cast<std::size_t>(to)]) {
      continue;
    }
    const sim::Duration f = latency.link_floor(lid, from, to);
    if (!any || f < floor_min) floor_min = f;
    any = true;
  }
  // No cross-shard link at all (one shard): any positive lookahead is
  // safe; use the global floor.
  return any ? floor_min : latency.min_one_way();
}

sim::ShardedKernel make_kernel(const ScenarioConfig& c,
                               const cell::HexGrid& grid,
                               const net::LinkTable& links,
                               const net::LatencyModel& latency) {
  std::vector<int> partition =
      cell::make_partition(grid, c.shards, c.partition);
  const sim::Duration lookahead =
      cross_shard_lookahead(links, latency, partition);
  return sim::ShardedKernel(std::move(partition), c.shards, lookahead,
                            c.threads);
}

bool canonical_before(const metrics::CallRecord& a,
                      const metrics::CallRecord& b) {
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
  auto& slot = world->node_rng_[static_cast<std::size_t>(cellId)];
  if (!slot) {
    slot = std::make_unique<sim::RngStream>(sim::RngStream::derive(
        world->config_.seed,
        std::uint64_t{0x90de000} + static_cast<std::uint64_t>(cellId)));
  }
  return *slot;
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
bool World::ShardEnv::channel_usable(CellId cellId, cell::ChannelId ch) const {
  return world->noise_.usable(cellId, ch, now());
}

// -- construction ----------------------------------------------------------

World::World(const ScenarioConfig& config, Scheme scheme,
             const traffic::LoadProfile* load,
             std::unique_ptr<net::LatencyModel> latency_override)
    : config_(config),
      scheme_(scheme),
      grid_(config.rows, config.cols, config.interference_radius, config.wrap),
      plan_(config.greedy_plan
                ? cell::ReusePlan::greedy(grid_, config.n_channels)
                : cell::ReusePlan::cluster(grid_, config.n_channels,
                                           config.cluster)),
      links_(grid_),
      latency_(latency_override ? std::move(latency_override)
                                : make_scenario_latency(config)),
      noise_(config.seed, config.radio_fade_prob, config.radio_fade_bucket),
      kernel_(make_kernel(config, grid_, links_, *latency_)),
      states_(static_cast<std::size_t>(config.shards)) {
  // A broken reuse plan voids every guarantee downstream; fail fast even
  // in release builds (e.g. a torus whose dimensions don't fit the
  // cluster pattern: cluster 7 needs rows % 14 == 0 and cols % 7 == 0).
  if (!plan_.validate(grid_)) {
    const std::string plan_name =
        config_.greedy_plan ? "greedy" : "cluster " + std::to_string(config_.cluster);
    std::fprintf(stderr,
                 "World: reuse plan invalid for %dx%d grid (radius %d, %s%s)"
                 " — interfering cells would share primary channels\n",
                 config_.rows, config_.cols, config_.interference_radius,
                 plan_name.c_str(),
                 config_.wrap == cell::Wrap::kToroidal ? ", toroidal" : "");
    std::abort();
  }
  for (int s = 0; s < config_.shards; ++s) {
    states_[static_cast<std::size_t>(s)].env.world = this;
    states_[static_cast<std::size_t>(s)].env.shard = s;
  }
  transport_ = std::make_unique<net::Transport>(kernel_, links_, *latency_,
                                                config_.fault, config_.seed);
  transport_->set_receiver(
      [this](const net::Message& msg) { dispatch_to_node(msg); });
  transport_->set_recorder([this](const sim::TraceEvent& e) { emit(e); });

  const auto n = static_cast<std::size_t>(grid_.n_cells());
  truth_.assign(n, cell::ChannelSet(config_.n_channels));
  flags_.reset(n);
  node_rng_.resize(n);

  policy_ = make_policy(config_);
  nodes_.reserve(n);
  for (CellId c = 0; c < grid_.n_cells(); ++c) {
    proto::NodeContext ctx{c, &grid_, &plan_, &state_of(c).env,
                           proto::Resilience{config_.request_timeout},
                           policy_.get()};
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
    arrivals_ = traffic::plan_arrivals(grid_.n_cells(), *load,
                                       config_.mean_holding_s, config_.seed,
                                       config_.duration);
    for (CellId c = 0; c < grid_.n_cells(); ++c) schedule_next_arrival(c);
  }

  kernel_.set_pin_threads(config_.pin);
  if (config_.stream_metrics) {
    builder_.emplace(latency_->max_one_way(), config_.warmup);
    for (ShardState& st : states_) {
      st.collector.set_streaming(true);
      st.msg_tally_base.assign(arrivals_.calls, 0);
    }
    kernel_.set_window_hook(
        [this](sim::SimTime frontier) { on_window(frontier); });
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

void World::net_send(net::Message msg) {
  ShardState& st = state_of(msg.from);
  // Metrics attribution at send time. HANDOFF carries the *next* leg's
  // serial, whose record does not open until the message lands, so it
  // counts as unattributable.
  if (msg.serial == 0 || msg.kind == net::MsgKind::kHandoff) {
    st.collector.on_message(msg);
  } else if (builder_) {
    // Streaming: a flat count per serial, summed across shards at run end
    // — exact wherever the bill lands, and still correct for bills that
    // arrive after the record was folded out of the engine.
    if (traffic::mobility::hop_of(msg.serial) == 0 &&
        msg.serial <= st.msg_tally_base.size()) {
      ++st.msg_tally_base[static_cast<std::size_t>(msg.serial - 1)];
    } else {
      ++st.msg_tally_other[msg.serial];
    }
  } else if (!st.collector.bill(msg.serial, msg.kind)) {
    // The record lives on another shard (its request cell's, or wherever
    // a migrated call's handoff landed); bill it there at merge time. The
    // record provably exists by then: messages carrying a serial are only
    // ever sent after its record opened.
    st.foreign_bills.emplace_back(msg.serial, msg.kind);
  }
  transport_->send(std::move(msg));
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
  flag_check(msg.to);
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
  std::vector<metrics::CallRecord> batch;
  for (ShardState& st : states_) {
    std::vector<metrics::CallRecord> part =
        st.collector.drain_closed_before(frontier);
    batch.insert(batch.end(), std::make_move_iterator(part.begin()),
                 std::make_move_iterator(part.end()));
  }
  if (!batch.empty()) {
    // Equal (t_decision, cell) keys always share a shard, so the stable
    // sort reproduces the canonical close order within the batch.
    std::stable_sort(
        batch.begin(), batch.end(),
        [](const metrics::CallRecord& a, const metrics::CallRecord& b) {
          return canonical_before(a, b);
        });
    // Neighbour samples need timeline entries at or before each close —
    // resolve them *before* pruning.
    flags_.apply_neighbor_samples(grid_, batch);
    for (const metrics::CallRecord& r : batch) {
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

metrics::Aggregate World::aggregate_buffered() {
  // Complete every record in place: foreign bills go to the one collector
  // holding the serial, then the deferred neighbour samples.
  for (const ShardState& st : states_) {
    for (const auto& [serial, kind] : st.foreign_bills) {
      bool billed = false;
      for (ShardState& owner : states_) {
        if (owner.collector.bill(serial, kind)) {
          billed = true;
          break;
        }
      }
      assert(billed && "a bill for a serial no shard opened");
      (void)billed;
    }
  }
  for (ShardState& st : states_) {
    st.foreign_bills.clear();
    flags_.apply_neighbor_samples(grid_, st.collector.mutable_records());
  }

  // K-way merge in canonical (t_decision, cell) order: each shard closes
  // its records in execution order, which is that order, so no record is
  // copied or sorted.
  metrics::AggregateBuilder builder(latency_->max_one_way(), config_.warmup);
  std::vector<std::size_t> pos(states_.size(), 0);
  for (;;) {
    const metrics::CallRecord* next = nullptr;
    std::size_t from = 0;
    for (std::size_t s = 0; s < states_.size(); ++s) {
      const auto& recs = states_[s].collector.records();
      if (pos[s] == recs.size()) continue;
      assert(pos[s] == 0 || !canonical_before(recs[pos[s]], recs[pos[s] - 1]));
      if (next == nullptr || canonical_before(recs[pos[s]], *next)) {
        next = &recs[pos[s]];
        from = s;
      }
    }
    if (next == nullptr) break;
    builder.add(*next);
    ++pos[from];
  }
  return builder.finish();
}

RunResult World::result() {
  RunResult out;
  out.scheme = scheme_;

  if (builder_) {
    // Drain whatever closed after the last stride fold (the quiescence
    // tail runs past `duration`, so use an unbounded frontier), then
    // merge the per-shard message tallies by summation and replay the two
    // deferred message Summaries in fold order — the only Summaries whose
    // inputs (final per-serial totals) are unknown at fold time.
    fold_to(sim::kTimeNever);
    ShardState& acc = states_.front();
    for (std::size_t s = 1; s < states_.size(); ++s) {
      const ShardState& st = states_[s];
      for (std::size_t i = 0; i < st.msg_tally_base.size(); ++i) {
        acc.msg_tally_base[i] += st.msg_tally_base[i];
      }
      for (const auto& [serial, count] : st.msg_tally_other) {
        acc.msg_tally_other[serial] += count;
      }
    }
    for (const auto& [serial, acquired] : fold_order_) {
      std::uint32_t total = 0;
      if (traffic::mobility::hop_of(serial) == 0 &&
          serial <= acc.msg_tally_base.size()) {
        total = acc.msg_tally_base[static_cast<std::size_t>(serial - 1)];
      } else if (const auto it = acc.msg_tally_other.find(serial);
                 it != acc.msg_tally_other.end()) {
        total = it->second;
      }
      builder_->add_messages(total, acquired);
    }
    out.agg = builder_->finish();
  } else {
    out.agg = aggregate_buffered();
  }

  out.total_messages = transport_->total_sent();
  out.cross_shard_messages = transport_->cross_shard_sent();
  for (int k = 0; k < net::kNumMsgKinds; ++k) {
    out.messages_by_kind[static_cast<std::size_t>(k)] =
        transport_->sent_of(static_cast<net::MsgKind>(k));
  }
  out.transport = transport_->stats();
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
