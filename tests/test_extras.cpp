// Focused extras: ARMA(1,1) psi weights, ensemble refit cadence, DOT
// export on BCube, plot resampling, and engine protocol metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/ascii_plot.hpp"
#include "common/require.hpp"
#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/predictor.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/simulate.hpp"
#include "topology/bcube.hpp"
#include "topology/dot_export.hpp"
#include "topology/fat_tree.hpp"

namespace ts = sheriff::ts;
namespace sc = sheriff::common;
namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;

TEST(ArimaExtras, Arma11PsiWeightsClosedForm) {
  // For ARMA(1,1): psi_1 = phi + theta, psi_j = phi^{j-1} psi_1 for j >= 1.
  sc::Pcg32 rng(91);
  const auto x = ts::simulate_arma({0.5}, {0.3}, 0.0, 1.0, 6000, rng);
  ts::ArimaModel model(ts::ArimaOrder{1, 0, 1});
  model.fit(x);
  const double phi = model.ar_coefficients()[0];
  const double theta = model.ma_coefficients()[0];
  const auto psi = model.psi_weights(6);
  EXPECT_DOUBLE_EQ(psi[0], 1.0);
  EXPECT_NEAR(psi[1], phi + theta, 1e-12);
  for (std::size_t j = 2; j < psi.size(); ++j) {
    EXPECT_NEAR(psi[j], (phi + theta) * std::pow(phi, static_cast<double>(j - 1)), 1e-12);
  }
}

TEST(EnsembleExtras, RefitsOnConfiguredInterval) {
  core::EnsembleProfilePredictor::Options options;
  options.min_fit = 48;
  options.history = 96;
  options.refit_interval = 16;
  options.selector_window = 8;
  core::EnsembleProfilePredictor predictor(options);
  sc::Pcg32 rng(92);
  wl::WorkloadProfile p;
  // Feed well past several refit intervals; predictions must stay sane.
  for (int t = 0; t < 100; ++t) {
    for (auto& v : p.values) v = 0.4 + 0.2 * std::sin(t / 7.0) + rng.normal(0.0, 0.02);
    p.clamp();
    predictor.observe(p);
    if (predictor.ready()) {
      const auto forecast = predictor.predict(2);
      for (double v : forecast.values) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
  EXPECT_TRUE(predictor.ready());
}

TEST(DotExportExtras, BCubeLevelsRendered) {
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 1;
  const auto t = topo::build_bcube(options);
  std::ostringstream os;
  topo::write_dot(os, t);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("bcube-n3-k1"), std::string::npos);
  EXPECT_NE(dot.find("bcube-switch"), std::string::npos);  // level-1 switches
  EXPECT_NE(dot.find("cluster_rack2"), std::string::npos);
}

TEST(PlotExtras, ResamplesLongSeriesToWidth) {
  std::vector<double> series(1000);
  for (std::size_t i = 0; i < series.size(); ++i) series[i] = static_cast<double>(i);
  sc::PlotOptions options;
  options.width = 40;
  options.height = 8;
  const auto chart = sc::render_plot(series, options);
  // Every canvas row is exactly width wide (plus label/axis characters).
  std::istringstream lines(chart);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    const auto bar = line.find('|');
    if (bar == std::string::npos) continue;
    EXPECT_EQ(line.size() - bar - 1, 40u);
    ++rows;
  }
  EXPECT_EQ(rows, 8u);
}

TEST(PlotExtras, SparklineWidthRespected) {
  std::vector<double> series(500);
  sc::Pcg32 rng(93);
  for (auto& v : series) v = rng.next_double();
  const auto spark = sc::sparkline(series, 32);
  // Each glyph is a 3-byte UTF-8 block character.
  EXPECT_EQ(spark.size() % 3, 0u);
  EXPECT_LE(spark.size() / 3, 32u);
}

TEST(EngineExtras, ProtocolMetricsExposed) {
  topo::FatTreeOptions topt;
  topt.pods = 4;
  topt.hosts_per_rack = 3;
  const auto t = topo::build_fat_tree(topt);
  core::EngineConfig config;
  wl::DeploymentOptions deploy;
  deploy.seed = 94;
  deploy.skew_weight = 10.0;
  deploy.hot_host_bias = 4.0;
  core::DistributedEngine engine(t, deploy, config);
  bool saw_iteration = false;
  for (int r = 0; r < 8; ++r) {
    const auto m = engine.run_round();
    if (m.migrations > 0) {
      EXPECT_GE(m.protocol_iterations, 1u);
      saw_iteration = true;
    }
  }
  EXPECT_TRUE(saw_iteration);
}
