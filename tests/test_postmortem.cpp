// Postmortem checkpoint tests: the byte codecs, the URNC container's
// error handling, the scenario section round-trip, and the end-to-end
// contract of the runner's bundle path — a checkpointed run is
// bit-identical to an unhooked one, and resuming from its checkpoint
// reproduces the straight-through RunResult field for field.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "obs/postmortem.hpp"
#include "radio/engine.hpp"
#include "radio/misaligned_engine.hpp"
#include "support/rng.hpp"

namespace urn {
namespace {

namespace pm = obs::postmortem;

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

// Every deterministic RunResult field; `series` / `events_recorded` /
// `monitor` / `bundle` are observability artifacts and deliberately
// excluded (a traced run records events, a plain run does not).
void expect_run_equal(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.wake_slot, b.wake_slot);
  EXPECT_EQ(a.decision_slot, b.decision_slot);
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.medium.slots_run, b.medium.slots_run);
  EXPECT_EQ(a.medium.transmissions, b.medium.transmissions);
  EXPECT_EQ(a.medium.deliveries, b.medium.deliveries);
  EXPECT_EQ(a.medium.collisions, b.medium.collisions);
  EXPECT_EQ(a.medium.dropped, b.medium.dropped);
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.check.valid(), b.check.valid());
  EXPECT_EQ(a.max_color, b.max_color);
  EXPECT_EQ(a.num_leaders, b.num_leaders);
  EXPECT_EQ(a.leader_of, b.leader_of);
  EXPECT_EQ(a.intra_cluster, b.intra_cluster);
  EXPECT_EQ(a.total_resets, b.total_resets);
  EXPECT_EQ(a.max_verify_states, b.max_verify_states);
  EXPECT_EQ(a.duplicate_serves, b.duplicate_serves);
}

// ---- byte codecs ----------------------------------------------------------

TEST(PostmortemCodec, WriterReaderRoundTrip) {
  pm::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.5);
  w.boolean(true);
  w.boolean(false);

  pm::Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.5);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(PostmortemCodec, ReaderLatchesOnTruncation) {
  const std::string three_bytes("\x01\x02\x03", 3);
  pm::Reader r(three_bytes);
  EXPECT_EQ(r.u32(), 0u);  // needs 4, only 3 available
  EXPECT_FALSE(r.ok());
  // Latched: even a 1-byte read now fails, the buffer is poisoned.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(PostmortemCodec, RngSnapshotRoundTripReplaysDrawForDraw) {
  Rng original(12345);
  (void)original.normal();  // park a spare so the cache path is exercised
  (void)original.below(100);

  pm::Writer w;
  pm::write_rng(w, original);
  Rng restored(999);  // deliberately different seed; restore overwrites
  pm::Reader r(w.data());
  ASSERT_TRUE(pm::read_rng(r, restored));

  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(original.below(1000), restored.below(1000)) << "draw " << i;
    EXPECT_EQ(original.normal(), restored.normal()) << "draw " << i;
  }
}

// ---- URNC container error handling ---------------------------------------

TEST(CheckpointFile, RejectsMissingFile) {
  const auto file =
      pm::read_checkpoint_file(::testing::TempDir() + "no_such.urnc");
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("cannot open"), std::string::npos) << file.error;
}

TEST(CheckpointFile, RejectsBadMagic) {
  const std::string path = ::testing::TempDir() + "bad_magic.urnc";
  ASSERT_TRUE(pm::write_text_file(
      path, std::string("NOPE") + std::string(20, '\0')));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("not a URNC checkpoint"), std::string::npos)
      << file.error;
}

TEST(CheckpointFile, RejectsFutureVersionWithOneLiner) {
  pm::Writer w;
  for (char c : pm::kCkptMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(pm::kCkptVersion + 1);
  w.u16(0);  // kind aligned
  w.i64(0);  // position
  w.u32(0);  // empty scenario section
  w.u32(0);  // empty engine-state section
  const std::string path = ::testing::TempDir() + "future.urnc";
  ASSERT_TRUE(pm::write_text_file(path, w.data()));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("newer than this reader"), std::string::npos)
      << file.error;
}

// URNC version 2 changed only the misaligned engine-state layout (the
// shared engine core's lanes and the half-slot medium's frames in
// flight).  A version-1 misaligned checkpoint is refused with one line;
// a version-1 aligned checkpoint, whose engine-state bytes are the same,
// still loads and resumes.
TEST(CheckpointFile, Version1MisalignedRejectedVersion1AlignedResumes) {
  Rng rng(21);
  const graph::Graph g = graph::gnp(40, 0.1, rng);
  const std::size_t n = g.num_nodes();
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params = core::Params::practical(n, delta, 5, 12);
  const auto schedule = radio::WakeSchedule::synchronous(n);
  const radio::Slot budget = 10 * params.threshold();
  const auto nodes = [&] {
    std::vector<core::ColoringNode> v;
    for (graph::NodeId i = 0; i < n; ++i) v.emplace_back(&params, i);
    return v;
  };
  // Rewrite the header's version field (bytes 4–5) of a fresh capture.
  const auto as_version_1 = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes[4] = 1;
    bytes[5] = 0;
    const std::string v1 = path + ".v1";
    EXPECT_TRUE(pm::write_text_file(v1, bytes));
    return v1;
  };

  const std::string aligned_path = ::testing::TempDir() + "v1_aligned.urnc";
  radio::Engine<core::ColoringNode> aligned(g, schedule, nodes(), 4);
  pm::Checkpointer aligned_ckpt(
      aligned_path, pm::EngineKind::kAligned, 0,
      core::render_scenario(
          core::make_scenario(g, params, schedule, 4, budget)));
  aligned_ckpt.take(aligned, 0);
  const core::LoadedCheckpoint a1 =
      core::load_checkpoint(as_version_1(aligned_path));
  ASSERT_TRUE(a1.ok) << a1.error;
  EXPECT_EQ(a1.version, 1);
  const core::ResumeResult resumed = core::resume_coloring(a1);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.run.check.valid());

  const std::string mis_path = ::testing::TempDir() + "v1_misaligned.urnc";
  Rng orng(22);
  auto offsets =
      radio::MisalignedEngine<core::ColoringNode>::random_offsets(n, orng);
  radio::MisalignedEngine<core::ColoringNode> mis(g, schedule, nodes(),
                                                  offsets, 4);
  pm::Checkpointer mis_ckpt(
      mis_path, pm::EngineKind::kMisaligned, 0,
      core::render_scenario(core::make_scenario(
          g, params, schedule, 4, budget, {}, 0, std::move(offsets))));
  mis_ckpt.take(mis, 0);
  ASSERT_TRUE(core::load_checkpoint(mis_path).ok);
  const core::LoadedCheckpoint m1 =
      core::load_checkpoint(as_version_1(mis_path));
  EXPECT_FALSE(m1.ok);
  EXPECT_NE(m1.error.find("misaligned checkpoint version 1"),
            std::string::npos)
      << m1.error;
  EXPECT_EQ(m1.error.find('\n'), std::string::npos) << m1.error;
}

TEST(CheckpointFile, RejectsTruncatedSections) {
  pm::Writer w;
  for (char c : pm::kCkptMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u16(pm::kCkptVersion);
  w.u16(0);
  w.i64(0);
  w.u32(100);  // claims a 100-byte scenario section, then EOF
  const std::string path = ::testing::TempDir() + "truncated.urnc";
  ASSERT_TRUE(pm::write_text_file(path, w.data()));
  const auto file = pm::read_checkpoint_file(path);
  EXPECT_FALSE(file.ok);
  EXPECT_NE(file.error.find("truncated"), std::string::npos) << file.error;
}

// ---- scenario section -----------------------------------------------------

TEST(ScenarioCodec, RoundTripPreservesEveryField) {
  Rng rng(7);
  const graph::Graph g = graph::gnp(40, 0.1, rng);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(g.num_nodes(), delta, 5, 12);
  Rng wrng(11);
  const auto schedule =
      radio::WakeSchedule::uniform(g.num_nodes(), 700, wrng);
  radio::MediumOptions medium;
  medium.drop_probability = 0.25;
  std::vector<std::uint8_t> offsets(g.num_nodes());
  for (std::size_t v = 0; v < offsets.size(); ++v) {
    offsets[v] = static_cast<std::uint8_t>(v & 1);
  }

  const core::CheckpointScenario in = core::make_scenario(
      g, params, schedule, /*seed=*/0xC0FFEE, /*max_slots=*/12345, medium,
      /*trial=*/9, offsets);
  const std::string bytes = core::render_scenario(in);

  pm::Reader r(bytes);
  core::CheckpointScenario out;
  ASSERT_TRUE(core::read_scenario(r, out));
  EXPECT_EQ(out.num_nodes, g.num_nodes());
  EXPECT_EQ(out.edges, in.edges);
  EXPECT_EQ(out.wake_slots, in.wake_slots);
  EXPECT_EQ(out.offsets, offsets);
  EXPECT_EQ(out.seed, 0xC0FFEEull);
  EXPECT_EQ(out.trial, 9ull);
  EXPECT_EQ(out.max_slots, 12345);
  EXPECT_EQ(out.medium.drop_probability, 0.25);
  EXPECT_EQ(out.params.threshold(), params.threshold());

  // Rebuilding the CSR from the edge list must reproduce the original
  // adjacency exactly (GraphBuilder sorts, so neighbor order — and with
  // it every medium RNG draw — is pinned).
  graph::GraphBuilder gb(out.num_nodes);
  for (auto [u, v] : out.edges) gb.add_edge(u, v);
  const graph::Graph rebuilt = gb.build();
  ASSERT_EQ(rebuilt.num_nodes(), g.num_nodes());
  ASSERT_EQ(rebuilt.num_edges(), g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto a = g.neighbors(v);
    const auto b = rebuilt.neighbors(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "node " << v;
  }
}

TEST(ScenarioCodec, ReadRejectsTruncatedBytes) {
  Rng rng(7);
  const graph::Graph g = graph::gnp(20, 0.15, rng);
  const core::Params params = core::Params::practical(20, 6, 5, 12);
  const auto schedule = radio::WakeSchedule::synchronous(20);
  const std::string bytes = core::render_scenario(
      core::make_scenario(g, params, schedule, 1, 1000));
  for (const std::size_t cut : {bytes.size() / 4, bytes.size() / 2,
                                bytes.size() - 1}) {
    pm::Reader r(bytes.data(), cut);
    core::CheckpointScenario out;
    EXPECT_FALSE(core::read_scenario(r, out)) << "cut at " << cut;
  }
}

// A decoded scenario must be one the engine can run.  Each hostile field
// below is a clean decode failure — never a throw, an abort, or an
// allocation sized by a corrupt count rather than by the bytes present.
TEST(ScenarioCodec, ReadRejectsHostileFields) {
  Rng rng(7);
  const graph::Graph g = graph::gnp(40, 0.1, rng);
  const auto delta = std::max(2u, g.max_closed_degree());
  const core::Params params =
      core::Params::practical(g.num_nodes(), delta, 5, 12);
  const core::CheckpointScenario valid = core::make_scenario(
      g, params, radio::WakeSchedule::synchronous(g.num_nodes()), 1, 1000);
  const auto decodes = [](const std::string& bytes) {
    pm::Reader r(bytes);
    core::CheckpointScenario out;
    return core::read_scenario(r, out);
  };
  const std::string bytes = core::render_scenario(valid);
  ASSERT_TRUE(decodes(bytes));

  using Mutation = void (*)(core::CheckpointScenario&);
  const std::vector<std::pair<const char*, Mutation>> fields = {
      {"alpha NaN",
       [](core::CheckpointScenario& s) { s.params.alpha = std::nan(""); }},
      {"sigma inf",
       [](core::CheckpointScenario& s) {
         s.params.sigma = std::numeric_limits<double>::infinity();
       }},
      {"threshold past int64",
       [](core::CheckpointScenario& s) { s.params.sigma = 1e300; }},
      {"kappa2 0", [](core::CheckpointScenario& s) { s.params.kappa2 = 0; }},
      {"kappa2 2^30 (int32 colors)",
       [](core::CheckpointScenario& s) { s.params.kappa2 = 1u << 30; }},
      {"delta 2^31 (int32 colors)",
       [](core::CheckpointScenario& s) { s.params.delta = 1u << 31; }},
      {"reset_policy 9",
       [](core::CheckpointScenario& s) {
         s.params.reset_policy = static_cast<core::ResetPolicy>(9);
       }},
      {"params.n 1", [](core::CheckpointScenario& s) { s.params.n = 1; }},
      {"params.n != nodes",
       [](core::CheckpointScenario& s) { s.params.n = s.num_nodes + 1; }},
      {"drop NaN",
       [](core::CheckpointScenario& s) {
         s.medium.drop_probability = std::nan("");
       }},
      {"drop 1", [](core::CheckpointScenario& s) {
         s.medium.drop_probability = 1.0;
       }},
      {"drop negative", [](core::CheckpointScenario& s) {
         s.medium.drop_probability = -0.25;
       }},
  };
  for (const auto& [name, mutate] : fields) {
    core::CheckpointScenario s = valid;
    mutate(s);
    EXPECT_FALSE(decodes(core::render_scenario(s))) << name;
  }

  // Counts patched in place (rendering 2^27 real wake slots would take
  // 1 GiB).  Layout: Params (54 bytes, params.n first), node count, edge
  // count, 8 bytes per edge, wake-slot count.
  const auto patch_u64 = [](std::string& b, std::size_t at,
                            std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      b[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  constexpr std::size_t kNodesAt = 54;
  const std::size_t wake_at = kNodesAt + 16 + 8 * valid.edges.size();
  for (const std::uint64_t n : {std::uint64_t{1} << 31,   // > engine limit
                                std::uint64_t{1} << 27}) {  // > section
    std::string b = bytes;
    patch_u64(b, 0, n);  // params.n agrees, so only the counts are wrong
    patch_u64(b, kNodesAt, n);
    patch_u64(b, wake_at, n);
    EXPECT_FALSE(decodes(b)) << "n = n_wake = " << n;
  }
}

// ---- runner bundle path ---------------------------------------------------

struct BundleFixture {
  graph::Graph g;
  core::Params params;
  radio::WakeSchedule schedule;
  std::uint64_t seed;
  radio::Slot budget;
};

BundleFixture make_fixture(std::uint64_t seed) {
  Rng rng(seed);
  graph::Graph g = graph::gnp(48, 0.1, rng);
  const auto delta = std::max(2u, g.max_closed_degree());
  core::Params params = core::Params::practical(g.num_nodes(), delta, 5, 12);
  Rng wrng(mix_seed(seed, 17));
  auto schedule = radio::WakeSchedule::uniform(g.num_nodes(), 600, wrng);
  const radio::Slot budget = 6 * params.threshold() + 4000;
  return {std::move(g), params, std::move(schedule), seed, budget};
}

TEST(RunnerPostmortem, CheckpointedRunMatchesPlainRunAndResumes) {
  const BundleFixture fx = make_fixture(3);
  radio::MediumOptions medium;
  medium.drop_probability = 0.2;

  const core::RunResult plain = core::run_coloring(
      fx.g, fx.params, fx.schedule, fx.seed, fx.budget, medium);

  const std::string dir = ::testing::TempDir() + "pm_clean_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 500;
  const core::RunResult traced = core::run_coloring_traced(
      fx.g, fx.params, fx.schedule, fx.seed, topts, fx.budget, medium);

  // Checkpointing must not perturb the run.
  expect_run_equal(traced, plain);

  // Bundle contents: checkpoint + ring + manifest always; monitor.json
  // and the RunResult bundle pointer only on violation (none here).
  EXPECT_TRUE(file_exists(dir + "/" + pm::kCkptFileName));
  EXPECT_TRUE(file_exists(dir + "/" + pm::kRingFileName));
  EXPECT_TRUE(file_exists(dir + "/" + pm::kManifestFileName));
  EXPECT_FALSE(file_exists(dir + "/" + pm::kMonitorFileName));
  EXPECT_TRUE(traced.bundle.empty());

  // The checkpoint cadence, pinned to the values recorded while the hook
  // was still an engine parameter of its own: every 500 slots from slot
  // 0 through the 15742-slot run, the last one at slot 15500.
  std::ifstream manifest_in(dir + "/" + pm::kManifestFileName);
  const std::string manifest((std::istreambuf_iterator<char>(manifest_in)),
                             std::istreambuf_iterator<char>());
  EXPECT_NE(manifest.find("\"checkpoints_written\":32,"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"last_checkpoint_position\":15500,"),
            std::string::npos)
      << manifest;

  // The last periodic checkpoint resumes to the straight-through result.
  const core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  EXPECT_EQ(ck.kind, pm::EngineKind::kAligned);
  EXPECT_EQ(ck.version, pm::kCkptVersion);
  EXPECT_EQ(ck.position, 15500);
  EXPECT_EQ(ck.scenario.max_slots, fx.budget);

  const core::ResumeResult resumed = core::resume_coloring(ck);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  expect_run_equal(resumed.run, plain);
}

TEST(RunnerPostmortem, DescribeCheckpointReportsFrozenState) {
  const BundleFixture fx = make_fixture(5);
  const std::string dir = ::testing::TempDir() + "pm_describe_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 300;
  (void)core::run_coloring_traced(fx.g, fx.params, fx.schedule, fx.seed,
                                  topts, fx.budget);

  const core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  const core::CheckpointSummary summary = core::describe_checkpoint(ck);
  ASSERT_TRUE(summary.ok) << summary.error;
  EXPECT_EQ(summary.position, ck.position);
  EXPECT_EQ(summary.nodes.size(), fx.g.num_nodes());
  EXPECT_EQ(summary.stats.slots_run, ck.position);
  std::size_t decided = 0;
  for (const auto& node : summary.nodes) decided += node.decided ? 1 : 0;
  EXPECT_EQ(summary.decided, decided);
}

TEST(RunnerPostmortem, ViolationCapturesFullBundle) {
  // An extreme fading rate stretches decision latencies far past the
  // Theorem 3 budget the monitor enforces, tripping the latency
  // invariant; scan a few seeds in case one run stays clean.
  radio::MediumOptions medium;
  medium.drop_probability = 0.85;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const BundleFixture fx = make_fixture(seed);
    const std::string dir = ::testing::TempDir() + "pm_violation_bundle_s" +
                            std::to_string(seed);
    core::TraceOptions topts;
    topts.postmortem.dir = dir;
    topts.postmortem.checkpoint_every = 1000;
    topts.postmortem.dump_on_violation = true;  // implies monitor
    const core::RunResult run = core::run_coloring_traced(
        fx.g, fx.params, fx.schedule, fx.seed, topts, fx.budget, medium);
    ASSERT_TRUE(run.monitor.has_value());
    if (run.monitor->ok()) continue;

    EXPECT_EQ(run.bundle, dir);
    EXPECT_TRUE(file_exists(dir + "/" + pm::kMonitorFileName));
    EXPECT_TRUE(file_exists(dir + "/" + pm::kCkptFileName));
    // The captured monitor report names a first violation.
    const auto* first = obs::first_violation(*run.monitor);
    ASSERT_NE(first, nullptr);
    EXPECT_GE(first->first_slot, 0);
    // And the bundle's checkpoint is still resumable.
    const core::LoadedCheckpoint ck =
        core::load_checkpoint(dir + "/" + pm::kCkptFileName);
    ASSERT_TRUE(ck.ok) << ck.error;
    const core::ResumeResult resumed = core::resume_coloring(ck);
    EXPECT_TRUE(resumed.ok) << resumed.error;
    return;
  }
  GTEST_SKIP() << "no invariant violation at drop=0.85 across 8 seeds";
}

TEST(RunnerPostmortem, ResumeRejectsCorruptEngineState) {
  const BundleFixture fx = make_fixture(13);
  const std::string dir = ::testing::TempDir() + "pm_corrupt_bundle";
  core::TraceOptions topts;
  topts.postmortem.dir = dir;
  topts.postmortem.checkpoint_every = 500;
  (void)core::run_coloring_traced(fx.g, fx.params, fx.schedule, fx.seed,
                                  topts, fx.budget);

  core::LoadedCheckpoint ck =
      core::load_checkpoint(dir + "/" + pm::kCkptFileName);
  ASSERT_TRUE(ck.ok) << ck.error;
  ck.engine_state.resize(ck.engine_state.size() / 2);  // chop the state
  const core::ResumeResult resumed = core::resume_coloring(ck);
  EXPECT_FALSE(resumed.ok);
  EXPECT_FALSE(resumed.error.empty());
}

}  // namespace
}  // namespace urn
