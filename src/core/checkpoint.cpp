#include "core/checkpoint.hpp"

#include "core/protocol.hpp"
#include "radio/engine.hpp"
#include "support/check.hpp"

namespace urn::core {

namespace pm = obs::postmortem;

namespace {

/// Caps on scenario counts from disk.  The node cap is the aligned
/// medium's limit (shared by both engine kinds here), so a hostile count
/// is a decode error rather than a throw from the engine constructor;
/// every per-node and per-edge section is further bounded by the bytes
/// left in the section, so no count can allocate beyond the file's size.
constexpr std::uint64_t kMaxScenarioNodes = radio::AlignedMedium::kMaxNodes;
constexpr std::uint64_t kMaxScenarioEdges = 1ull << 36;

/// Params a resume can run: `Params::validate()` holds (it throws, so
/// the check is caught here), the reset policy is a known enumerator,
/// and the node estimate is the scenario's own node count — every
/// checkpoint producer records the true n.
bool usable_params(const Params& p, std::uint64_t num_nodes) {
  if (p.reset_policy > ResetPolicy::kNone || p.n != num_nodes) return false;
  try {
    p.validate();
  } catch (const CheckError&) {
    return false;
  }
  return true;
}

std::vector<ColoringNode> build_nodes(const CheckpointScenario& s) {
  std::vector<ColoringNode> nodes;
  nodes.reserve(s.num_nodes);
  for (graph::NodeId v = 0; v < s.num_nodes; ++v) {
    nodes.emplace_back(&s.params, v);
  }
  return nodes;
}

graph::Graph rebuild_graph(const CheckpointScenario& s) {
  graph::GraphBuilder builder(s.num_nodes);
  for (const auto& [u, v] : s.edges) builder.add_edge(u, v);
  return builder.build();
}

/// Rebuild the engine a loaded checkpoint records, restore its saved
/// state, and hand it to `use`.  Returns the one-line error, or "".
template <typename Use>
std::string with_restored_engine(const LoadedCheckpoint& ck,
                                 const radio::WakeSchedule& schedule,
                                 Use&& use) {
  if (!ck.ok) return ck.error.empty() ? "checkpoint not loaded" : ck.error;
  const CheckpointScenario& s = ck.scenario;
  pm::Reader r(ck.engine_state);
  const auto restore = [&](auto& engine, const char* kind) -> std::string {
    if (!engine.load_state(r)) {
      return std::string("corrupt engine-state section (") + kind + ")";
    }
    use(engine);
    return {};
  };
  if (ck.kind == pm::EngineKind::kAligned) {
    radio::Engine<ColoringNode> engine(ck.graph, schedule, build_nodes(s),
                                       s.seed, s.medium);
    return restore(engine, "aligned");
  }
  radio::MisalignedEngine<ColoringNode> engine(ck.graph, schedule,
                                               build_nodes(s), s.offsets,
                                               s.seed);
  return restore(engine, "misaligned");
}

}  // namespace

CheckpointScenario make_scenario(const graph::Graph& g, const Params& params,
                                 const radio::WakeSchedule& schedule,
                                 std::uint64_t seed, Slot max_slots,
                                 radio::MediumOptions medium,
                                 std::uint64_t trial,
                                 std::vector<std::uint8_t> offsets) {
  CheckpointScenario s;
  s.params = params;
  s.num_nodes = g.num_nodes();
  s.edges.reserve(g.num_edges());
  // CSR adjacency stores both directions; keep each edge once (u < v).
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::NodeId u : g.neighbors(v)) {
      if (v < u) s.edges.emplace_back(v, u);
    }
  }
  s.wake_slots.assign(schedule.slots().begin(), schedule.slots().end());
  s.offsets = std::move(offsets);
  s.seed = seed;
  s.trial = trial;
  s.max_slots = max_slots;
  s.medium = medium;
  return s;
}

std::string render_scenario(const CheckpointScenario& s) {
  pm::Writer w;
  // Params.
  w.u64(s.params.n);
  w.u32(s.params.delta);
  w.u32(s.params.kappa1);
  w.u32(s.params.kappa2);
  w.f64(s.params.alpha);
  w.f64(s.params.beta);
  w.f64(s.params.gamma);
  w.f64(s.params.sigma);
  w.boolean(s.params.remember_served);
  w.u8(static_cast<std::uint8_t>(s.params.reset_policy));
  // Topology.
  w.u64(s.num_nodes);
  w.u64(s.edges.size());
  for (const auto& [u, v] : s.edges) {
    w.u32(u);
    w.u32(v);
  }
  // Schedule + offsets.
  w.u64(s.wake_slots.size());
  for (const Slot slot : s.wake_slots) w.i64(slot);
  w.u64(s.offsets.size());
  for (const std::uint8_t o : s.offsets) w.u8(o);
  // Run identity.
  w.u64(s.seed);
  w.u64(s.trial);
  w.i64(s.max_slots);
  w.f64(s.medium.drop_probability);
  return w.data();
}

bool read_scenario(pm::Reader& r, CheckpointScenario& out) {
  out.params.n = r.u64();
  out.params.delta = r.u32();
  out.params.kappa1 = r.u32();
  out.params.kappa2 = r.u32();
  out.params.alpha = r.f64();
  out.params.beta = r.f64();
  out.params.gamma = r.f64();
  out.params.sigma = r.f64();
  out.params.remember_served = r.boolean();
  out.params.reset_policy = static_cast<ResetPolicy>(r.u8());

  const std::uint64_t n = r.u64();
  if (!r.ok() || n > kMaxScenarioNodes || !usable_params(out.params, n)) {
    return false;
  }
  out.num_nodes = static_cast<std::size_t>(n);
  const std::uint64_t num_edges = r.u64();
  if (!r.ok() || num_edges > kMaxScenarioEdges ||
      num_edges * 8 > r.remaining()) {
    return false;
  }
  out.edges.clear();
  out.edges.reserve(static_cast<std::size_t>(num_edges));
  for (std::uint64_t i = 0; i < num_edges; ++i) {
    const graph::NodeId u = static_cast<graph::NodeId>(r.u32());
    const graph::NodeId v = static_cast<graph::NodeId>(r.u32());
    if (u >= out.num_nodes || v >= out.num_nodes) return false;
    out.edges.emplace_back(u, v);
  }
  const std::uint64_t n_wake = r.u64();
  if (!r.ok() || n_wake != n || n_wake * 8 > r.remaining()) return false;
  out.wake_slots.clear();
  out.wake_slots.reserve(static_cast<std::size_t>(n_wake));
  for (std::uint64_t i = 0; i < n_wake; ++i) {
    out.wake_slots.push_back(r.i64());
  }
  const std::uint64_t n_off = r.u64();
  if (!r.ok() || (n_off != 0 && n_off != n) || n_off > r.remaining()) {
    return false;
  }
  out.offsets.clear();
  out.offsets.reserve(static_cast<std::size_t>(n_off));
  for (std::uint64_t i = 0; i < n_off; ++i) {
    const std::uint8_t o = r.u8();
    if (o > 1) return false;
    out.offsets.push_back(o);
  }
  out.seed = r.u64();
  out.trial = r.u64();
  out.max_slots = r.i64();
  out.medium.drop_probability = r.f64();
  if (out.max_slots <= 0) return false;
  // The engine's medium precondition; the negated form also rejects NaN.
  const double drop = out.medium.drop_probability;
  if (!(drop >= 0.0 && drop < 1.0)) return false;
  return r.ok();
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  LoadedCheckpoint out;
  const pm::CheckpointFile file = pm::read_checkpoint_file(path);
  if (!file.ok) {
    out.error = file.error;
    return out;
  }
  if (file.kind == pm::EngineKind::kMisaligned && file.version < 2) {
    out.error = path + ": misaligned checkpoint version " +
                std::to_string(file.version) +
                " predates the version 2 engine-state layout; re-capture it";
    return out;
  }
  out.kind = file.kind;
  out.version = file.version;
  out.position = file.position;
  out.engine_state = file.engine_state;
  pm::Reader r(file.scenario);
  if (!read_scenario(r, out.scenario)) {
    out.error = path + ": corrupt scenario section";
    return out;
  }
  if (out.kind == pm::EngineKind::kMisaligned &&
      out.scenario.offsets.size() != out.scenario.num_nodes) {
    out.error = path + ": misaligned checkpoint without phase offsets";
    return out;
  }
  out.graph = rebuild_graph(out.scenario);
  out.ok = true;
  return out;
}

ResumeResult resume_coloring(const LoadedCheckpoint& ck) {
  ResumeResult out;
  const radio::WakeSchedule schedule(ck.scenario.wake_slots);
  out.error = with_restored_engine(ck, schedule, [&](auto& engine) {
    const radio::RunStats stats = engine.run(ck.scenario.max_slots);
    out.run = harvest_coloring(engine, ck.graph, schedule, stats);
  });
  out.ok = out.error.empty();
  return out;
}

CheckpointSummary describe_checkpoint(const LoadedCheckpoint& ck) {
  CheckpointSummary out;
  out.position = ck.position;
  const radio::WakeSchedule schedule(ck.scenario.wake_slots);
  out.error = with_restored_engine(ck, schedule, [&](const auto& engine) {
    out.nodes.reserve(ck.scenario.num_nodes);
    for (graph::NodeId v = 0; v < ck.scenario.num_nodes; ++v) {
      const ColoringNode& node = engine.node(v);
      NodeSnapshot snap;
      snap.phase = static_cast<std::uint8_t>(node.phase());
      snap.color_index =
          node.decided() ? node.color() : node.verifying_color();
      snap.counter = node.counter();
      snap.decided = node.decided();
      snap.awake = engine.is_awake(v);
      if constexpr (requires { engine.is_dead(v); }) {
        snap.dead = engine.is_dead(v);
      }
      snap.decision_slot = engine.decision_slot(v);
      snap.leader = node.leader();
      snap.intra_cluster = node.intra_cluster_color();
      snap.competitors = node.competitors();
      if (snap.awake) ++out.awake;
      if (snap.decided) ++out.decided;
      if (snap.dead) ++out.dead;
      out.nodes.push_back(snap);
    }
    out.stats = engine.stats();
  });
  out.ok = out.error.empty();
  return out;
}

}  // namespace urn::core
