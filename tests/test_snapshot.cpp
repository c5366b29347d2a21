// Checkpoint/restore subsystem tests (DESIGN.md §10): archive framing and
// corruption handling, RNG state round-trips, per-subsystem save/load, and
// the headline guarantee — run N == run N/2, save, load into a fresh
// engine, run N/2 — byte-identical metrics CSV, trace contents, and
// placement, pristine and faulted, across thread-pool sizes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/model_selection.hpp"
#include "timeseries/narnet.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/csv_trace.hpp"
#include "workload/trace_generator.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace fault = sheriff::fault;
namespace snap = sheriff::snapshot;
namespace obs = sheriff::obs;
namespace ts = sheriff::ts;
namespace sc = sheriff::common;

// --- archive framing ---------------------------------------------------------

TEST(SnapshotArchive, PrimitivesRoundTripExactly) {
  snap::Writer w;
  w.begin_section("TEST", 3);
  w.put_u8(0xAB);
  w.put_bool(true);
  w.put_bool(false);
  w.put_u32(0xDEADBEEFU);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i64(-42);
  w.put_f64(-0.0);
  w.put_f64(std::nan(""));
  w.put_f64(1e-310);  // denormal
  w.put_str("sheriff");
  const std::vector<double> f64v{1.5, -2.5, 0.0};
  const std::vector<std::uint64_t> u64v{7, 8};
  const std::vector<std::uint32_t> u32v{1, 2, 3};
  w.put_f64v(f64v);
  w.put_u64v(u64v);
  w.put_u32v(u32v);
  w.end_section();

  snap::Reader r(w.buffer());
  EXPECT_FALSE(r.at_end());
  r.expect_section("TEST", 3);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.get_i64(), -42);
  const double neg_zero = r.get_f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.get_f64()));
  EXPECT_EQ(r.get_f64(), 1e-310);
  EXPECT_EQ(r.get_str(), "sheriff");
  EXPECT_EQ(r.get_f64v(), (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.get_u64v(), (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(r.get_u32v(), (std::vector<std::uint32_t>{1, 2, 3}));
  r.leave_section();
  EXPECT_TRUE(r.at_end());
}

TEST(SnapshotArchive, TruncatedSectionFailsLoudly) {
  snap::Writer w;
  w.begin_section("TRNC", 1);
  w.put_f64v(std::vector<double>(64, 3.14));
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes.resize(bytes.size() - 5);
  snap::Reader r(std::move(bytes));
  EXPECT_THROW(r.expect_section("TRNC", 1), snap::SnapshotError);
}

TEST(SnapshotArchive, CorruptPayloadFailsCrc) {
  snap::Writer w;
  w.begin_section("CRCC", 1);
  w.put_str("payload that will rot");
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes.back() ^= 0x01;  // bit rot in the payload
  snap::Reader r(std::move(bytes));
  EXPECT_THROW(r.expect_section("CRCC", 1), snap::SnapshotError);
}

TEST(SnapshotArchive, VersionSkewIsRejectedWithDiagnostic) {
  snap::Writer w;
  w.begin_section("VERS", 2);
  w.put_u64(1);
  w.end_section();
  snap::Reader r(w.buffer());
  try {
    r.expect_section("VERS", 1);
    FAIL() << "version skew accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST(SnapshotArchive, BadPreambleIsRejected) {
  snap::Writer w;
  w.begin_section("OKAY", 1);
  w.end_section();
  std::vector<std::uint8_t> bytes = w.buffer();
  bytes[0] ^= 0xFF;
  EXPECT_THROW(snap::Reader r(std::move(bytes)), snap::SnapshotError);
}

TEST(SnapshotArchive, CorruptElementCountIsRejectedNotAllocated) {
  // A huge element count must throw before any allocation is sized by it.
  snap::Writer w;
  w.begin_section("CNTS", 1);
  w.put_u64(0xFFFFFFFFFFFFFFFFULL);  // claims ~2^64 elements
  w.end_section();
  snap::Reader r(w.buffer());
  r.expect_section("CNTS", 1);
  EXPECT_THROW((void)r.counted(8), snap::SnapshotError);
}

TEST(SnapshotArchive, LeftoverPayloadBytesAreAnError) {
  snap::Writer w;
  w.begin_section("LEFT", 1);
  w.put_u64(1);
  w.put_u64(2);
  w.end_section();
  snap::Reader r(w.buffer());
  r.expect_section("LEFT", 1);
  EXPECT_EQ(r.get_u64(), 1U);
  EXPECT_THROW(r.leave_section(), snap::SnapshotError);
}

// --- RNG state round-trip (satellite: common::Rng) ---------------------------

TEST(SnapshotRng, SaveRestoreNextDrawEqualsUninterrupted) {
  sc::Pcg32 rng(2024, 7);
  (void)rng.normal();  // may leave a cached second deviate
  const sc::Pcg32::State saved = rng.state();

  std::vector<double> uninterrupted;
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.next_double());
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.normal());
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.uniform(-3.0, 9.0));

  sc::Pcg32 restored(1, 1);  // arbitrary seed, fully overwritten
  restored.restore(saved);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.next_double(), uninterrupted[i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.normal(), uninterrupted[8 + i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.uniform(-3.0, 9.0), uninterrupted[16 + i]);
}

// --- per-subsystem round-trips ----------------------------------------------

namespace {

/// Saves `source` into one section and loads it into `target`.
template <typename T>
void round_trip(const T& source, T& target) {
  snap::Writer w;
  w.begin_section("UNIT", 1);
  source.save_state(w);
  w.end_section();
  snap::Reader r(w.buffer());
  r.expect_section("UNIT", 1);
  target.load_state(r);
  r.leave_section();
}

}  // namespace

TEST(SnapshotSubsystems, SeasonalTraceGeneratorResumesMidStream) {
  wl::SeasonalTraceOptions options;
  options.burst_probability = 0.05;
  options.burst_magnitude = 10.0;
  wl::SeasonalTraceGenerator a(options, 99);
  for (int i = 0; i < 100; ++i) (void)a.next();

  wl::SeasonalTraceGenerator b(options, 99);
  round_trip(a, b);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, WeeklyTrafficGeneratorResumesMidStream) {
  wl::WeeklyTrafficGenerator a(wl::WeeklyTrafficGenerator::Options{}, 3);
  for (int i = 0; i < 77; ++i) (void)a.next();
  wl::WeeklyTrafficGenerator b(wl::WeeklyTrafficGenerator::Options{}, 3);
  round_trip(a, b);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, ReplayTraceGeneratorKeepsPosition) {
  wl::ReplayTraceGenerator a({1.0, 2.0, 3.0, 4.0}, /*loop=*/true);
  (void)a.next();
  (void)a.next();
  wl::ReplayTraceGenerator b({1.0, 2.0, 3.0, 4.0}, /*loop=*/true);
  round_trip(a, b);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, HoltScalarStateRoundTrips) {
  core::HoltScalar a(0.4, 0.3);
  for (int i = 0; i < 20; ++i) a.observe(0.1 * i);
  core::HoltScalar b(0.4, 0.3);
  b.restore(a.state());
  EXPECT_EQ(a.predict(3), b.predict(3));
  a.observe(1.7);
  b.observe(1.7);
  EXPECT_EQ(a.predict(1), b.predict(1));
}

TEST(SnapshotSubsystems, FittedArimaForecastsIdentically) {
  std::vector<double> series;
  sc::Pcg32 rng(5);
  for (int i = 0; i < 120; ++i) series.push_back(10.0 + 3.0 * std::sin(i / 7.0) + rng.normal());

  ts::ArimaModel a(ts::ArimaOrder{2, 1, 1});
  a.fit(series);
  ts::ArimaModel b(ts::ArimaOrder{2, 1, 1});
  round_trip(a, b);
  EXPECT_EQ(a.forecast(series, 12), b.forecast(series, 12));
}

TEST(SnapshotSubsystems, FittedNarnetForecastsIdentically) {
  std::vector<double> series;
  for (int i = 0; i < 90; ++i) series.push_back(5.0 + 2.0 * std::sin(i / 5.0));
  ts::NarNet a(ts::NarNet::Options{});
  a.fit(series);
  ts::NarNet b(ts::NarNet::Options{});
  round_trip(a, b);
  EXPECT_EQ(a.forecast(series, 8), b.forecast(series, 8));
}

TEST(SnapshotSubsystems, DynamicModelSelectorKeepsFitnessAndSelection) {
  const auto make = [] {
    auto s = std::make_unique<ts::DynamicModelSelector>(8);
    s->add_model(ts::make_arima_forecaster(1, 1, 1));
    s->add_model(ts::make_narnet_forecaster(4, 8, 17));
    s->add_model(ts::make_naive_forecaster());
    return s;
  };
  std::vector<double> series;
  sc::Pcg32 rng(13);
  for (int i = 0; i < 100; ++i) series.push_back(20.0 + 5.0 * std::sin(i / 9.0) + rng.normal());

  auto a = make();
  a->fit(series);
  std::vector<double> history(series);
  for (int i = 0; i < 12; ++i) {
    (void)a->predict_next(history);
    const double truth = 20.0 + 5.0 * std::sin((100 + i) / 9.0);
    a->observe(truth);
    history.push_back(truth);
  }

  auto b = make();
  round_trip(*a, *b);
  EXPECT_EQ(a->best_model(), b->best_model());
  EXPECT_EQ(a->forecast(history, 6), b->forecast(history, 6));
}

TEST(SnapshotSubsystems, SelectorRejectsMismatchedCandidateSet) {
  auto a = std::make_unique<ts::DynamicModelSelector>(8);
  a->add_model(ts::make_naive_forecaster());
  a->add_model(ts::make_arima_forecaster(1, 0, 0));

  auto b = std::make_unique<ts::DynamicModelSelector>(8);
  b->add_model(ts::make_naive_forecaster());  // one candidate, not two

  snap::Writer w;
  w.begin_section("UNIT", 1);
  a->save_state(w);
  w.end_section();
  snap::Reader r(w.buffer());
  r.expect_section("UNIT", 1);
  EXPECT_ANY_THROW(b->load_state(r));
}

// --- full-engine resume equivalence ------------------------------------------

namespace {

struct ParityOptions {
  bool faulted = false;
  std::size_t save_pool_threads = 1;
  std::size_t resume_pool_threads = 8;
  std::size_t half_rounds = 20;
  core::PredictorKind predictor = core::PredictorKind::kHolt;
};

core::EngineConfig parity_config(const fault::FaultPlan* plan, sc::ThreadPool* pool,
                                 core::PredictorKind predictor) {
  core::EngineConfig config;
  config.observe = true;
  config.predictor = predictor;
  config.fault_plan = plan;
  config.pool = pool;
  return config;
}

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

std::vector<std::uint32_t> placement(const core::DistributedEngine& engine) {
  std::vector<std::uint32_t> hosts;
  for (wl::VmId vm = 0; vm < engine.deployment().vm_count(); ++vm) {
    hosts.push_back(engine.deployment().vm(vm).host);
  }
  return hosts;
}

void expect_traces_equal(const core::DistributedEngine& a, const core::DistributedEngine& b) {
  const auto ta = a.observation_hub()->trace().snapshot();
  const auto tb = b.observation_hub()->trace().snapshot();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].seq, tb[i].seq);
    EXPECT_EQ(ta[i].round, tb[i].round);
    EXPECT_EQ(ta[i].shim, tb[i].shim);
    EXPECT_EQ(ta[i].type, tb[i].type);
    EXPECT_EQ(ta[i].a, tb[i].a);
    EXPECT_EQ(ta[i].b, tb[i].b);
    EXPECT_EQ(ta[i].value, tb[i].value);
    if (ta[i].seq != tb[i].seq) break;  // one diagnostic, not thousands
  }
  EXPECT_EQ(a.observation_hub()->trace().next_seq(), b.observation_hub()->trace().next_seq());
}

fault::FaultPlan parity_fault_plan(const topo::Topology& topology, std::size_t half_rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  options.message_drop_probability = 0.15;
  // Link flaps on both sides of the save point, plus a permanent host
  // loss and a shim crash straddling the resume — the injector-replay
  // restore path has to reproduce all of it. Explicit link ids (not
  // random_link_flaps) so the same plan shape works on server-centric
  // fabrics like BCube, which have no switch-to-switch links.
  fault::FaultPlan plan(options);
  const auto link = [&](std::size_t nth) {
    return static_cast<topo::LinkId>(nth % topology.link_count());
  };
  plan.fail_link(link(7), 2, 6);
  plan.fail_link(link(23), half_rounds - 1, half_rounds + 3);
  plan.fail_link(link(41), half_rounds + 4, 2 * half_rounds - 2);
  plan.fail_host(topology.rack(1).hosts[0], half_rounds / 2);
  plan.fail_shim(0, half_rounds - 2, half_rounds + 2);
  return plan;
}

/// The headline guarantee: an uninterrupted 2H-round run vs H rounds →
/// serialize → fresh engine (possibly different pool size) → deserialize
/// → H more rounds. Metrics CSV, placement, and trace contents must match
/// byte for byte.
void expect_resume_equivalence(const topo::Topology& topology,
                               const wl::DeploymentOptions& deploy, const ParityOptions& opt) {
  fault::FaultPlan plan =
      opt.faulted ? parity_fault_plan(topology, opt.half_rounds) : fault::FaultPlan{};
  const fault::FaultPlan* plan_ptr = opt.faulted ? &plan : nullptr;
  sc::ThreadPool save_pool(opt.save_pool_threads);
  sc::ThreadPool resume_pool(opt.resume_pool_threads);

  // Uninterrupted reference.
  core::DistributedEngine continuous(topology, deploy,
                                     parity_config(plan_ptr, &save_pool, opt.predictor));
  std::vector<core::RoundMetrics> continuous_tail;
  for (std::size_t r = 0; r < 2 * opt.half_rounds; ++r) {
    core::RoundMetrics m = continuous.run_round();
    if (r >= opt.half_rounds) continuous_tail.push_back(m);
  }

  // Save at H...
  core::DistributedEngine first_half(topology, deploy,
                                     parity_config(plan_ptr, &save_pool, opt.predictor));
  for (std::size_t r = 0; r < opt.half_rounds; ++r) (void)first_half.run_round();
  const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(first_half);

  // ... load into a fresh engine (different pool size) and finish.
  core::DistributedEngine resumed(topology, deploy,
                                  parity_config(plan_ptr, &resume_pool, opt.predictor));
  core::Checkpoint::deserialize(resumed, checkpoint);
  ASSERT_EQ(resumed.rounds_run(), opt.half_rounds);
  std::vector<core::RoundMetrics> resumed_tail;
  for (std::size_t r = 0; r < opt.half_rounds; ++r) resumed_tail.push_back(resumed.run_round());

  EXPECT_EQ(metrics_csv(continuous_tail), metrics_csv(resumed_tail));
  EXPECT_EQ(placement(continuous), placement(resumed));
  expect_traces_equal(continuous, resumed);
}

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

topo::Topology small_bcube() {
  // levels = 2 so the fabric has switch-to-switch links for the flap plan.
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 2;
  return topo::build_bcube(options);
}

wl::DeploymentOptions parity_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

}  // namespace

TEST(SnapshotEngine, FatTreePristineResumesByteIdentical) {
  ParityOptions opt;
  opt.save_pool_threads = 1;
  opt.resume_pool_threads = 8;
  expect_resume_equivalence(small_fat_tree(), parity_deployment(), opt);
}

TEST(SnapshotEngine, FatTreeFaultedResumesByteIdentical) {
  ParityOptions opt;
  opt.faulted = true;
  opt.save_pool_threads = 8;
  opt.resume_pool_threads = 1;
  expect_resume_equivalence(small_fat_tree(), parity_deployment(), opt);
}

TEST(SnapshotEngine, BCubePristineResumesByteIdentical) {
  ParityOptions opt;
  opt.save_pool_threads = 8;
  opt.resume_pool_threads = 1;
  expect_resume_equivalence(small_bcube(), parity_deployment(), opt);
}

TEST(SnapshotEngine, BCubeFaultedResumesByteIdentical) {
  ParityOptions opt;
  opt.faulted = true;
  opt.save_pool_threads = 1;
  opt.resume_pool_threads = 8;
  expect_resume_equivalence(small_bcube(), parity_deployment(), opt);
}

TEST(SnapshotEngine, EnsemblePredictorResumesAcrossTheFirstFit) {
  // H=30: the save lands before the ensemble's first fit (min_fit 48), so
  // the resumed run must fit from restored histories mid-flight and still
  // match the uninterrupted run bit for bit.
  topo::FatTreeOptions topo_options;
  topo_options.pods = 4;
  topo_options.hosts_per_rack = 1;
  wl::DeploymentOptions deploy;
  deploy.seed = 31;
  deploy.vms_per_host = 1.5;
  ParityOptions opt;
  opt.half_rounds = 30;
  opt.predictor = core::PredictorKind::kEnsemble;
  expect_resume_equivalence(topo::build_fat_tree(topo_options), deploy, opt);
}

TEST(SnapshotEngine, CheckpointRejectsMismatchedEngine) {
  const topo::Topology fat_tree = small_fat_tree();
  core::DistributedEngine source(fat_tree, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(source);

  // Different topology.
  {
    const topo::Topology bcube = small_bcube();
    core::DistributedEngine target(bcube, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, checkpoint), snap::SnapshotError);
  }
  // Different config (manager mode is fingerprinted).
  {
    core::EngineConfig config;
    config.mode = core::ManagerMode::kCentralized;
    core::DistributedEngine target(fat_tree, parity_deployment(), config);
    EXPECT_ANY_THROW(core::Checkpoint::deserialize(target, checkpoint));
  }
  // Different deployment seed => different placement/flow fingerprint...
  // unless counts happen to collide; the load must still succeed or throw,
  // never crash. Same-everything must succeed:
  {
    core::DistributedEngine target(fat_tree, parity_deployment(), core::EngineConfig{});
    EXPECT_NO_THROW(core::Checkpoint::deserialize(target, checkpoint));
    EXPECT_EQ(target.rounds_run(), 1U);
  }
}

TEST(SnapshotEngine, UnknownSectionVersionIsRejected) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);
  // The first section's version field sits right after the 8-byte
  // preamble, the 4-byte magic, and the 4-byte tag.
  bytes[16] += 1;
  core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
  try {
    core::Checkpoint::deserialize(target, std::move(bytes));
    FAIL() << "future section version accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST(SnapshotEngine, MetaV2ArchiveIsRejectedNamingBothVersions) {
  // META v3 dropped the from-scratch fair-share fingerprint bool; a v2
  // archive must be refused by name, not misparsed.
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);
  // META is the first section; its little-endian u32 version sits right
  // after the 8-byte preamble, the 4-byte magic, and the 4-byte tag.
  ASSERT_EQ(std::string(bytes.begin() + 12, bytes.begin() + 16), "META");
  ASSERT_EQ(bytes[16], 3u);
  bytes[16] = 2;
  core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
  try {
    core::Checkpoint::deserialize(target, std::move(bytes));
    FAIL() << "META v2 archive accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("section 'META': archive has v2, this build reads v3"),
              std::string::npos)
        << e.what();
  }
}

TEST(SnapshotEngine, TruncatedAndCorruptCheckpointsFailLoudly) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);

  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{11}}) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + keep);
    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, std::move(truncated)),
                 snap::SnapshotError)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
  {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, std::move(corrupt)),
                 snap::SnapshotError);
  }
}

// Archive mutation fuzz: no mutated checkpoint — random byte flips,
// overwrites, truncations, or garbage tails — may ever crash, hang, or
// over-allocate the loader; every failure mode must surface as a thrown
// SnapshotError. A load that happens to succeed is fine when the mutation
// misses anything load-bearing (e.g. flips a byte the CRC does cover but
// the mutated payload re-validates — it cannot: CRC mismatch throws — or
// lands in bytes the reader never consumes; both are vanishingly rare and
// harmless, so the assertion is "throws SnapshotError or loads", never
// "dies".)
TEST(SnapshotEngine, MutatedCheckpointsAlwaysFailAsSnapshotError) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  for (int r = 0; r < 3; ++r) (void)source.run_round();
  const std::vector<std::uint8_t> pristine = core::Checkpoint::serialize(source);
  ASSERT_GT(pristine.size(), 64u);

  std::size_t threw = 0;
  std::size_t loaded = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    sc::Pcg32 rng(0x5EED0000 + seed, seed);
    std::vector<std::uint8_t> bytes = pristine;

    // Mutation recipe drawn from the seed: truncate, flip a burst of bytes,
    // overwrite a run with a constant, or append garbage. Several stacked
    // per seed so corruptions compound like real torn/bit-rotted files.
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (rng.next_below(4)) {
        case 0: {  // truncate anywhere, including inside the preamble
          bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size() + 1)));
          break;
        }
        case 1: {  // flip 1-8 random bytes
          if (bytes.empty()) break;
          const std::size_t flips = 1 + rng.next_below(8);
          for (std::size_t i = 0; i < flips; ++i) {
            bytes[rng.next_below(static_cast<std::uint32_t>(bytes.size()))] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        }
        case 2: {  // overwrite a run with a constant (fake lengths/counts)
          if (bytes.empty()) break;
          const std::size_t start = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
          const std::size_t len = std::min<std::size_t>(1 + rng.next_below(16),
                                                        bytes.size() - start);
          const auto value = static_cast<std::uint8_t>(rng.next_u32());
          for (std::size_t i = 0; i < len; ++i) bytes[start + i] = value;
          break;
        }
        default: {  // append garbage (leftover bytes must be rejected)
          const std::size_t extra = 1 + rng.next_below(32);
          for (std::size_t i = 0; i < extra; ++i) {
            bytes.push_back(static_cast<std::uint8_t>(rng.next_u32()));
          }
          break;
        }
      }
    }
    if (bytes == pristine) continue;

    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    try {
      core::Checkpoint::deserialize(target, std::move(bytes));
      ++loaded;  // mutation missed everything load-bearing
    } catch (const snap::SnapshotError&) {
      ++threw;  // the one acceptable failure mode
    }
    // Anything else — std::bad_alloc from a forged count, a std::logic_error,
    // a segfault — escapes the try and fails the test (or kills the process,
    // which the harness reports just as loudly).
  }
  // The CRC and framing make silent acceptance of a corrupt archive
  // essentially impossible: virtually every seed must have thrown.
  EXPECT_GT(threw, 190u);
  EXPECT_LT(loaded, 10u);
}
