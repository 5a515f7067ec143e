// Tests for the campaign scheduler: sweep expansion (log/linear ranges,
// comma lists, Cartesian products, malformed specs naming the offending
// key), cost-ordered queue construction, manifest journal round trips with
// torn tails, worker-pool execution (retry with backoff, watchdog timeouts,
// thread-budget admission under stress, drain, resume-skipping), and the
// campaign-level acceptance scenario: a sweep killed mid-run with a
// corrupted checkpoint must complete on resume with every case's final
// state bitwise identical to an uninterrupted campaign.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "fluid/checkpoint.hpp"
#include "io/atomic_file.hpp"
#include "obs/campaign_monitor.hpp"
#include "sched/case_runner.hpp"
#include "sched/manifest.hpp"
#include "sched/scheduler.hpp"

namespace felis::sched {
namespace {

namespace fs = std::filesystem;

// ---- sweep expansion -----------------------------------------------------

TEST(Sweep, TargetKeyMapsBareNamesToCase) {
  EXPECT_EQ(sweep_target_key("sweep.Ra"), "case.Ra");
  EXPECT_EQ(sweep_target_key("sweep.dt"), "case.dt");
  EXPECT_EQ(sweep_target_key("sweep.mesh.degree"), "mesh.degree");
  EXPECT_THROW(sweep_target_key("case.Ra"), Error);
  EXPECT_THROW(sweep_target_key("sweep."), Error);
}

TEST(Sweep, LogRangeHitsEndpointsGeometrically) {
  const auto v = expand_sweep_values("sweep.Ra", "1e5:1e8:log4");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "100000");
  EXPECT_EQ(v[1], "1e+06");
  EXPECT_EQ(v[2], "1e+07");
  EXPECT_EQ(v[3], "1e+08");
}

TEST(Sweep, LinearRangeIsInclusiveAndEvenlySpaced) {
  const auto v = expand_sweep_values("sweep.dt", "0.01 : 0.04 : lin4");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], "0.01");
  EXPECT_EQ(v[1], "0.02");
  EXPECT_EQ(v[2], "0.03");
  EXPECT_EQ(v[3], "0.04");
}

TEST(Sweep, CommaListPassesStringsThrough) {
  const auto v = expand_sweep_values("sweep.device.backend", "serial, openmp");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "serial");
  EXPECT_EQ(v[1], "openmp");
}

TEST(Sweep, MalformedSpecsThrowNamingTheKey) {
  const auto expect_names_key = [](const std::string& spec) {
    try {
      expand_sweep_values("sweep.Ra", spec);
      FAIL() << "spec '" << spec << "' was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("sweep.Ra"), std::string::npos)
          << "error for '" << spec << "' does not name the key: " << e.what();
    }
  };
  expect_names_key("");
  expect_names_key("1e5:1e8");           // missing spacing field
  expect_names_key("1e5:1e8:log");       // missing point count
  expect_names_key("1e5:1e8:log1");      // count < 2
  expect_names_key("1e5:1e8:geom4");     // unknown spacing
  expect_names_key("1e5:1e8:log4x");     // trailing junk in count
  expect_names_key("bananas:1e8:log4");  // not a number
  expect_names_key("-1e5:1e8:log4");     // log of a negative endpoint
  expect_names_key("0:1e8:log4");        // log of zero
  expect_names_key("a,,b");              // empty list element
}

TEST(Sweep, CartesianProductIsRowMajorOverSortedAxes) {
  const ParamMap params = ParamMap::parse(
      "sweep.Ra = 1e5,1e6\nsweep.mesh.degree = 4,5\ncase.Pr = 1.0");
  const auto cases = expand_campaign_cases(params);
  ASSERT_EQ(cases.size(), 4u);
  // Axes iterate in sorted key order: sweep.Ra before sweep.mesh.degree,
  // first axis slowest.
  EXPECT_EQ(cases[0].params.get_string("case.Ra", ""), "1e5");
  EXPECT_EQ(cases[0].params.get_string("mesh.degree", ""), "4");
  EXPECT_EQ(cases[1].params.get_string("case.Ra", ""), "1e5");
  EXPECT_EQ(cases[1].params.get_string("mesh.degree", ""), "5");
  EXPECT_EQ(cases[3].params.get_string("case.Ra", ""), "1e6");
  EXPECT_EQ(cases[3].params.get_string("mesh.degree", ""), "5");
  // Non-swept keys are inherited; ids are unique and name the overrides.
  for (const auto& c : cases) {
    EXPECT_EQ(c.params.get_real("case.Pr", 0), 1.0);
    EXPECT_EQ(c.overrides.size(), 2u);
  }
  EXPECT_NE(cases[0].id, cases[1].id);
  EXPECT_NE(cases[0].id.find("Ra"), std::string::npos);
}

TEST(Sweep, NoSweepKeysYieldsTheSingleBaseCase) {
  const auto cases = expand_campaign_cases(ParamMap::parse("case.Ra = 1e5"));
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_TRUE(cases[0].overrides.empty());
}

// ---- campaign spec -------------------------------------------------------

TEST(Campaign, FromParamsOrdersQueueByEstimatedCost) {
  const ParamMap params = ParamMap::parse(
      "campaign.workers = 2\ncampaign.steps = 10\nsweep.Ra = 1e5:1e8:log4");
  const CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 4u);
  // Longest-processing-time-first: cost decreasing, i.e. Ra decreasing
  // (higher Ra => more Krylov iterations in the estimate).
  for (usize i = 1; i < spec.cases.size(); ++i) {
    EXPECT_GE(spec.cases[i - 1].cost_seconds, spec.cases[i].cost_seconds);
    EXPECT_GT(spec.cases[i - 1].params.get_real("case.Ra", 0),
              spec.cases[i].params.get_real("case.Ra", 0));
  }
  EXPECT_GT(spec.cases[0].cost_seconds, 0.0);
}

TEST(Campaign, ValidatesConfigAndPerCaseBudgets) {
  EXPECT_THROW(
      CampaignSpec::from_params(ParamMap::parse("campaign.workers = 0")),
      Error);
  EXPECT_THROW(
      CampaignSpec::from_params(ParamMap::parse("campaign.steps = 0")),
      Error);
  // A case asking for more ranks than the whole budget can never run.
  try {
    CampaignSpec::from_params(ParamMap::parse(
        "campaign.thread_budget = 2\ncase.ranks = 4\ncase.Ra = 1e5"));
    FAIL() << "oversized case was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("thread_budget"), std::string::npos)
        << e.what();
  }
}

// ---- manifest ------------------------------------------------------------

class ManifestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("felis_sched_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ManifestTest, JournalRoundTripsStatesAttemptsAndMetrics) {
  const std::string path = dir_ + "/manifest.ndjson";
  {
    ManifestWriter writer(path);
    CampaignSpec spec;
    spec.config.name = "unit";
    writer.write_header(spec);
    writer.write_transition("a", "queued", 1, 0.0, 0.0);
    writer.write_transition("a", "running", 1, 0.1, 0.0);
    writer.write_transition("a", "retried", 1, 0.2, 0.1, "injected crash");
    writer.write_transition("a", "queued", 2, 0.2, 0.0);
    writer.write_transition("a", "running", 2, 0.3, 0.0);
    writer.write_transition("a", "done", 2, 0.5, 0.2, "",
                            {{"Ra", 1e5}, {"nu_volume", 1.25}});
    writer.write_transition("b", "running", 1, 0.1, 0.0);
  }
  const ManifestState state = read_manifest(path);
  ASSERT_TRUE(state.found);
  ASSERT_EQ(state.cases.size(), 2u);
  EXPECT_TRUE(state.cases.at("a").completed());
  EXPECT_EQ(state.cases.at("a").attempts, 2);
  EXPECT_EQ(state.cases.at("a").metrics.at("Ra"), 1e5);
  EXPECT_EQ(state.cases.at("a").metrics.at("nu_volume"), 1.25);
  EXPECT_FALSE(state.cases.at("b").completed());
  EXPECT_EQ(state.cases.at("b").state, "running");
}

TEST_F(ManifestTest, TornFinalLineIsIgnoredNotFatal) {
  const std::string path = dir_ + "/manifest.ndjson";
  {
    ManifestWriter writer(path);
    writer.write_transition("a", "done", 1, 0.5, 0.2);
  }
  // Simulate a kill mid-append: a record missing its closing brace.
  {
    std::ofstream out(path, std::ios::app);
    out << R"({"type":"run","case":"a","state":"failed","att)";
  }
  const ManifestState state = read_manifest(path);
  ASSERT_TRUE(state.found);
  EXPECT_TRUE(state.cases.at("a").completed()) << "torn line overrode state";
  EXPECT_FALSE(read_manifest(dir_ + "/absent.ndjson").found);
}

TEST_F(ManifestTest, DoneMetricsReplayBitwise) {
  // 1.23456789012345678 has 17 significant digits; a %.10g journal would
  // replay it as 1.234567890.
  const std::string path = dir_ + "/manifest.ndjson";
  const double nu = 1.23456789012345678;
  {
    ManifestWriter writer(path);
    writer.write_transition("a", "done", 1, 0.5, 0.2, "",
                            {{"nu_volume", nu}, {"tiny", 5e-324}});
  }
  const ManifestState state = read_manifest(path);
  EXPECT_EQ(state.cases.at("a").metrics.at("nu_volume"), nu);
  EXPECT_EQ(state.cases.at("a").metrics.at("tiny"), 5e-324);
}

TEST_F(ManifestTest, SubmitRecordControlBytesFoldBack) {
  std::string tenant = "team";
  std::string reason = "line1\nline2";
  for (int b = 0; b < 0x20; ++b) tenant += static_cast<char>(b);
  for (int b = 0x1f; b >= 0; --b) reason += static_cast<char>(b);
  tenant += "\"\\\x7f";
  ManifestState state;
  apply_manifest_line(state, format_submit_record("sub-1", tenant, 2,
                                                  "rejected", reason, 0, 1.5,
                                                  0.25));
  ASSERT_EQ(state.submissions.count("sub-1"), 1u);
  EXPECT_EQ(state.submissions.at("sub-1").tenant, tenant);
  EXPECT_EQ(state.submissions.at("sub-1").reason, reason);
  EXPECT_EQ(state.submissions.at("sub-1").decision, "rejected");
}

// ---- scheduler (fake runners: no physics, pure orchestration) ------------

CampaignSpec tiny_spec(const std::string& dir, int cases, int workers,
                       int budget, int retries = 0, int backoff_ms = 1) {
  std::string text;
  text += "campaign.dir = " + dir + "\n";
  text += "campaign.workers = " + std::to_string(workers) + "\n";
  text += "campaign.thread_budget = " + std::to_string(budget) + "\n";
  text += "campaign.retries = " + std::to_string(retries) + "\n";
  text += "campaign.backoff_ms = " + std::to_string(backoff_ms) + "\n";
  text += "campaign.steps = 1\n";
  text += cases == 1 ? std::string("sweep.Ra = 1e4\n")
                     : "sweep.Ra = 1e4:1e7:log" + std::to_string(cases) + "\n";
  return CampaignSpec::from_params(ParamMap::parse(text));
}

TEST_F(ManifestTest, SchedulerRunsEveryCaseOnce) {
  std::atomic<int> runs{0};
  Scheduler scheduler(tiny_spec(dir_, 5, 2, 2),
                      [&](const CaseSpec&, RunContext&) {
                        runs.fetch_add(1);
                        return RunResult{true, "", {}};
                      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(runs.load(), 5);
  EXPECT_EQ(report.completed, 5);
  EXPECT_TRUE(report.all_done());
  EXPECT_LE(report.max_threads_in_flight, 2);
  // Manifest: every case reached `done`.
  const ManifestState state = read_manifest(dir_ + "/manifest.ndjson");
  ASSERT_EQ(state.cases.size(), 5u);
  for (const auto& [id, status] : state.cases) EXPECT_TRUE(status.completed());
}

TEST_F(ManifestTest, RetriesWithBackoffThenSucceeds) {
  std::atomic<int> attempts_seen{0};
  Scheduler scheduler(
      tiny_spec(dir_, 2, 2, 2, /*retries=*/2),
      [&](const CaseSpec& cs, RunContext& ctx) {
        attempts_seen.fetch_add(1);
        // The most expensive case fails twice, then succeeds on attempt 3.
        const bool is_flaky = cs.params.get_real("case.Ra", 0) > 1e6;
        return RunResult{!is_flaky || ctx.attempt() >= 3, "synthetic", {}};
      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(attempts_seen.load(), 4);  // 1 + 3
  const auto& flaky = *std::find_if(
      report.outcomes.begin(), report.outcomes.end(),
      [](const CaseOutcome& o) { return o.attempts == 3; });
  EXPECT_EQ(flaky.state, "done");
}

TEST_F(ManifestTest, RetryExhaustionFailsTheCaseOnly) {
  Scheduler scheduler(tiny_spec(dir_, 3, 2, 2, /*retries=*/1),
                      [&](const CaseSpec& cs, RunContext&) {
                        const bool broken =
                            cs.params.get_real("case.Ra", 0) > 1e6;
                        return RunResult{!broken, "synthetic breakage", {}};
                      });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(report.retries, 1);
  EXPECT_FALSE(report.all_done());
  const ManifestState state = read_manifest(dir_ + "/manifest.ndjson");
  int failed = 0;
  for (const auto& [id, status] : state.cases)
    failed += status.state == "failed";
  EXPECT_EQ(failed, 1);
}

TEST_F(ManifestTest, WatchdogCancelsStalledRunWhichRetries) {
  CampaignSpec spec = tiny_spec(dir_, 1, 1, 1, /*retries=*/1);
  spec.config.watchdog_seconds = 0.05;
  Scheduler scheduler(spec, [&](const CaseSpec&, RunContext& ctx) {
    if (ctx.attempt() == 1) {
      // Stall without heartbeating until the watchdog cancels us.
      while (!ctx.cancelled())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return RunResult{false, "", {}};
    }
    ctx.heartbeat();
    return RunResult{true, "", {}};
  });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 1);
  EXPECT_EQ(report.retries, 1);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST_F(ManifestTest, ThreadBudgetIsNeverExceededUnderStress) {
  // 12 cases needing 1-3 threads each on a budget of 4: admissions must
  // never oversubscribe, which the scheduler FELIS_CHECKs internally and we
  // assert independently here.
  std::string text = "campaign.dir = " + dir_ + "\n";
  text += "campaign.workers = 4\ncampaign.thread_budget = 4\n";
  text += "campaign.steps = 1\nsweep.seed = 1:12:lin12\n";
  CampaignSpec spec = CampaignSpec::from_params(ParamMap::parse(text));
  ASSERT_EQ(spec.cases.size(), 12u);
  for (usize i = 0; i < spec.cases.size(); ++i)
    spec.cases[i].threads = 1 + static_cast<int>(i % 3);

  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  Scheduler scheduler(spec, [&](const CaseSpec& cs, RunContext&) {
    const int now = in_flight.fetch_add(cs.threads) + cs.threads;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    EXPECT_LE(now, 4) << "thread budget exceeded";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    in_flight.fetch_sub(cs.threads);
    return RunResult{true, "", {}};
  });
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(report.completed, 12);
  EXPECT_LE(peak.load(), 4);
  EXPECT_LE(report.max_threads_in_flight, 4);
  EXPECT_GT(report.max_threads_in_flight, 1) << "no concurrency at all";
}

TEST_F(ManifestTest, DrainStopsAdmissionsAndMarksInterruptedRetried) {
  Scheduler* handle = nullptr;
  std::atomic<int> started{0};
  Scheduler scheduler(tiny_spec(dir_, 6, 1, 1),
                      [&](const CaseSpec&, RunContext& ctx) {
                        if (started.fetch_add(1) == 0) handle->request_drain();
                        return RunResult{!ctx.cancelled(), "", {}};
                      });
  handle = &scheduler;
  const CampaignReport report = scheduler.run();
  EXPECT_EQ(started.load(), 1) << "drain did not stop admissions";
  EXPECT_EQ(report.drained, 6);
  EXPECT_EQ(report.failed, 0);
  // The interrupted case is journalled `retried`, the rest stay `queued`;
  // a resume re-runs all of them.
  Scheduler resumed(tiny_spec(dir_, 6, 2, 2),
                    [&](const CaseSpec&, RunContext&) {
                      return RunResult{true, "", {}};
                    });
  const CampaignReport second = resumed.run();
  EXPECT_EQ(second.completed, 6);
  EXPECT_EQ(second.skipped, 0);
}

TEST_F(ManifestTest, ResumeSkipsCompletedCases) {
  std::atomic<int> first_runs{0};
  Scheduler first(tiny_spec(dir_, 4, 2, 2),
                  [&](const CaseSpec& cs, RunContext&) {
                    first_runs.fetch_add(1);
                    // Half the campaign fails terminally (no retries).
                    const bool ok = cs.params.get_real("case.Ra", 0) < 2e5;
                    return RunResult{ok, "synthetic", {{"Ra", 1.0}}};
                  });
  const CampaignReport r1 = first.run();
  EXPECT_EQ(r1.completed, 2);
  EXPECT_EQ(r1.failed, 2);

  std::atomic<int> second_runs{0};
  Scheduler second(tiny_spec(dir_, 4, 2, 2),
                   [&](const CaseSpec&, RunContext&) {
                     second_runs.fetch_add(1);
                     return RunResult{true, "", {}};
                   });
  const CampaignReport r2 = second.run();
  EXPECT_EQ(second_runs.load(), 2) << "completed cases were re-run";
  EXPECT_EQ(r2.skipped, 2);
  EXPECT_EQ(r2.completed, 2);
  EXPECT_TRUE(r2.all_done());
  // Skipped cases keep their recorded metrics for campaign aggregates.
  for (const CaseOutcome& out : r2.outcomes) {
    if (out.skipped) {
      EXPECT_EQ(out.result.metrics.at("Ra"), 1.0);
    }
  }
}

TEST_F(ManifestTest, ResumeSkipsCaseWhoseIdHoldsControlBytes) {
  // A case id with \x01 and a tab must replay as itself, or resume would
  // treat the finished case as new work and run it again.
  CampaignSpec spec = tiny_spec(dir_, 2, 2, 2);
  spec.cases[0].id = std::string("ra\x01\tb", 5);
  std::atomic<int> first_runs{0};
  Scheduler first(spec, [&](const CaseSpec&, RunContext&) {
    first_runs.fetch_add(1);
    return RunResult{true, "", {}};
  });
  EXPECT_EQ(first.run().completed, 2);
  EXPECT_EQ(first_runs.load(), 2);

  std::atomic<int> second_runs{0};
  Scheduler second(spec, [&](const CaseSpec&, RunContext&) {
    second_runs.fetch_add(1);
    return RunResult{true, "", {}};
  });
  const CampaignReport r2 = second.run();
  EXPECT_EQ(second_runs.load(), 0) << "a completed case was re-run";
  EXPECT_EQ(r2.skipped, 2);
  EXPECT_TRUE(read_manifest(dir_ + "/manifest.ndjson")
                  .cases.at(spec.cases[0].id)
                  .completed());
}

// ---- the real runner: campaign-level crash recovery ----------------------

/// Four-case Ra sweep, real RBC runner, tiny mesh. `steps` is kept small so
/// the full acceptance scenario stays in CI budget.
ParamMap acceptance_params(const std::string& dir) {
  ParamMap p = ParamMap::parse(R"(
    campaign.workers = 2
    campaign.thread_budget = 2
    campaign.steps = 10
    campaign.retries = 2
    campaign.backoff_ms = 1
    sweep.Ra = 2e4:2e5:log4
    case.dt = 1.5e-2
    case.perturbation = 2e-2
    checkpoint.every = 4
  )");
  p.set("campaign.dir", dir);
  return p;
}

/// Load the final checkpoint of every case of a campaign, keyed by case id.
std::map<std::string, fluid::Checkpoint> final_checkpoints(
    const CampaignSpec& spec) {
  std::map<std::string, fluid::Checkpoint> out;
  for (const CaseSpec& cs : spec.cases) {
    const fs::path dir = fs::path(spec.config.dir) / cs.id / "checkpoints";
    std::int64_t newest = -1;
    for (const auto& entry : fs::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() < 6 || name.substr(name.size() - 5) != ".ckpt") continue;
      const auto dot = name.find('.');
      newest = std::max<std::int64_t>(newest, std::stoll(name.substr(dot + 1)));
    }
    EXPECT_GE(newest, 0) << "no checkpoint for " << cs.id;
    char stamp[16];
    std::snprintf(stamp, sizeof(stamp), "%010lld",
                  static_cast<long long>(newest));
    out.emplace(cs.id, fluid::Checkpoint::load(
                           (dir / ("felis." + std::string(stamp) + ".ckpt"))
                               .string()));
  }
  return out;
}

TEST_F(ManifestTest, KilledCampaignAutoRecoversBitwise) {
  // Reference: the same sweep, uninterrupted.
  const std::string ref_dir = dir_ + "/ref";
  CampaignSpec ref_spec = CampaignSpec::from_params(acceptance_params(ref_dir));
  Scheduler ref(ref_spec, make_case_runner());
  const CampaignReport ref_report = ref.run();
  ASSERT_TRUE(ref_report.all_done());
  const auto ref_final = final_checkpoints(ref.spec());

  // Session 1: one case dies at its second checkpoint write (a simulated
  // process kill mid-rotation) with in-session retries disabled — the case
  // is left `failed` in the manifest, exactly like a campaign whose driver
  // was killed and could not retry.
  const std::string dir = dir_ + "/campaign";
  ParamMap params = acceptance_params(dir);
  params.set("campaign.retries", 0);
  CampaignSpec spec1 = CampaignSpec::from_params(params);
  ASSERT_EQ(spec1.cases.size(), 4u);
  const std::string victim = spec1.cases.front().id;  // most expensive case
  for (CaseSpec& cs : spec1.cases) {
    if (cs.id != victim) continue;
    cs.params.set("fault.mode", std::string("crash"));
    cs.params.set("fault.at", 2);
  }
  Scheduler session1(spec1, make_case_runner());
  const CampaignReport r1 = session1.run();
  EXPECT_EQ(r1.failed, 1);
  EXPECT_EQ(r1.completed, 3);

  // Corrupt the victim's newest surviving checkpoint on disk (bitrot while
  // the campaign was down): recovery must fall back to the older one.
  {
    const fs::path ck_dir = fs::path(dir) / victim / "checkpoints";
    fs::path newest;
    for (const auto& entry : fs::directory_iterator(ck_dir)) {
      if (entry.path().extension() != ".ckpt") continue;
      if (newest.empty() || entry.path().filename() > newest.filename())
        newest = entry.path();
    }
    ASSERT_FALSE(newest.empty());
    std::fstream f(newest, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(80);
    char byte = 0;
    f.seekg(80);
    f.get(byte);
    byte = static_cast<char>(byte ^ 0xff);
    f.seekp(80);
    f.put(byte);
  }

  // A monitor attached between the kill and the resume sees the session-1
  // journal; keeping it polling across session 2 must land on the same fold
  // as a fresh whole-file read (the incremental-tail equivalence contract).
  obs::CampaignMonitor monitor(dir);
  monitor.poll();
  EXPECT_EQ(monitor.manifest_state().cases.at(victim).state, "failed");

  // Session 2: fresh scheduler over the same manifest. Completed cases are
  // skipped; the failed case re-queues, restores from the newest *valid*
  // checkpoint and catches up.
  CampaignSpec spec2 = CampaignSpec::from_params(acceptance_params(dir));
  Scheduler session2(spec2, make_case_runner());
  const CampaignReport r2 = session2.run();
  EXPECT_EQ(r2.skipped, 3);
  EXPECT_EQ(r2.completed, 1);
  ASSERT_TRUE(r2.all_done());

  // Every case's final state is bitwise identical to the uninterrupted
  // campaign — the PR 3 exact-restart guarantee, now at campaign level.
  const auto final = final_checkpoints(session2.spec());
  ASSERT_EQ(final.size(), ref_final.size());
  for (const auto& [id, ck] : final) {
    const fluid::Checkpoint& ref_ck = ref_final.at(id);
    EXPECT_EQ(ck.step, ref_ck.step) << id;
    EXPECT_EQ(ck.time, ref_ck.time) << id;
    ASSERT_EQ(ck.u.size(), ref_ck.u.size()) << id;
    for (usize i = 0; i < ck.u.size(); ++i) {
      ASSERT_EQ(ck.u[i], ref_ck.u[i]) << id << " u dof " << i;
      ASSERT_EQ(ck.temperature[i], ref_ck.temperature[i])
          << id << " T dof " << i;
    }
  }

  // Monitor-vs-manifest equivalence after the killed-and-resumed campaign:
  // the monitor's incremental fold (production transition logic fed by the
  // follower) is bitwise-equal to a fresh read_manifest fold, and the
  // snapshot's per-case states/attempts/metrics reproduce it exactly.
  monitor.poll();
  const ManifestState fresh = read_manifest(dir + "/manifest.ndjson");
  const ManifestState& folded = monitor.manifest_state();
  ASSERT_TRUE(folded.found);
  ASSERT_EQ(folded.cases.size(), fresh.cases.size());
  const obs::CampaignSnapshot snap = monitor.snapshot();
  for (const auto& [id, ref_case] : fresh.cases) {
    const auto it = folded.cases.find(id);
    ASSERT_NE(it, folded.cases.end()) << id;
    EXPECT_EQ(it->second.state, ref_case.state) << id;
    EXPECT_EQ(it->second.attempts, ref_case.attempts) << id;
    EXPECT_EQ(it->second.metrics, ref_case.metrics) << id;
    const obs::CaseView* view = snap.find(id);
    ASSERT_NE(view, nullptr) << id;
    EXPECT_EQ(view->state, ref_case.state) << id;
    EXPECT_EQ(view->attempts, ref_case.attempts) << id;
    EXPECT_EQ(view->metrics, ref_case.metrics) << id;
  }
  EXPECT_TRUE(snap.complete());
  EXPECT_EQ(snap.resumes, 1);
}

TEST_F(ManifestTest, EnvFaultInjectionCrashRetriesAndRecovers) {
  // The CI path: FELIS_FAULT_INJECT kills every case's second checkpoint
  // write; the scheduler's in-session retry restores and completes.
  ASSERT_EQ(::setenv("FELIS_FAULT_INJECT", "mode=crash; at=2", 1), 0);
  ParamMap params = acceptance_params(dir_ + "/env");
  CampaignSpec spec = CampaignSpec::from_params(params);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_EQ(::unsetenv("FELIS_FAULT_INJECT"), 0);
  EXPECT_TRUE(report.all_done());
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.retries, 4);
  for (const CaseOutcome& out : report.outcomes) EXPECT_EQ(out.attempts, 2);
}

TEST_F(ManifestTest, MultiRankCaseRunsUnderTheBudget) {
  ParamMap params = ParamMap::parse(R"(
    campaign.workers = 2
    campaign.thread_budget = 2
    campaign.steps = 4
    campaign.ranks = 2
    case.Ra = 2e4
    case.dt = 1.5e-2
    checkpoint.every = 2
  )");
  params.set("campaign.dir", dir_);
  CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 1u);
  EXPECT_EQ(spec.cases[0].threads, 2);
  Scheduler scheduler(spec, make_case_runner());
  const CampaignReport report = scheduler.run();
  ASSERT_TRUE(report.all_done());
  EXPECT_EQ(report.max_threads_in_flight, 2);
  EXPECT_EQ(report.outcomes[0].result.metrics.at("ranks"), 2.0);
  // Both ranks checkpointed under their own basenames.
  const fs::path ck =
      fs::path(dir_) / spec.cases[0].id / "checkpoints";
  int r0 = 0, r1 = 0;
  for (const auto& entry : fs::directory_iterator(ck)) {
    const std::string name = entry.path().filename().string();
    r0 += name.rfind("felis.r0.", 0) == 0;
    r1 += name.rfind("felis.r1.", 0) == 0;
  }
  EXPECT_GT(r0, 0);
  EXPECT_GT(r1, 0);
}

TEST_F(ManifestTest, TelemetryHeaderNamesTheCaseBackendAndKernels) {
  // The runner builds the case on its device.backend, and the telemetry
  // header says which backend and which tensor-kernel variants ran.
  ParamMap params = ParamMap::parse(R"(
    campaign.workers = 1
    campaign.thread_budget = 1
    campaign.steps = 2
    case.Ra = 2e4
    case.dt = 1.5e-2
    device.backend = openmp
    telemetry.enabled = true
  )");
  params.set("campaign.dir", dir_);
  CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 1u);
  Scheduler scheduler(spec, make_case_runner());
  ASSERT_TRUE(scheduler.run().all_done());
  std::ifstream in(fs::path(dir_) / spec.cases[0].id / "telemetry" /
                   "run.ndjson");
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_NE(header.find(R"("backend":"openmp")"), std::string::npos) << header;
  EXPECT_NE(header.find(R"("kernels":"axis0=)"), std::string::npos) << header;
}

// ---- service mode: checkpoint-boundary preemption ------------------------

TEST_F(ManifestTest, PreemptedCaseResumesBitwiseIdentical) {
  // Reference: the victim case, uninterrupted, batch mode.
  ParamMap base = ParamMap::parse(R"(
    campaign.workers = 1
    campaign.thread_budget = 1
    campaign.steps = 60
    campaign.backoff_ms = 1
    case.Ra = 2e4
    case.dt = 1.5e-2
    case.perturbation = 2e-2
    checkpoint.every = 5
  )");
  ParamMap ref_params = base;
  ref_params.set("campaign.dir", dir_ + "/ref");
  Scheduler ref(CampaignSpec::from_params(ref_params), make_case_runner());
  ASSERT_TRUE(ref.run().all_done());
  const auto ref_final = final_checkpoints(ref.spec());
  ASSERT_EQ(ref_final.size(), 1u);
  const std::string victim = ref_final.begin()->first;

  // Service mode: the same victim at priority 0 on a 1-thread budget; a
  // priority-5 submission arrives while it runs and can only fit by
  // preempting it at its next checkpoint boundary.
  const std::string dir = dir_ + "/serve";
  ParamMap params = base;
  params.set("campaign.dir", dir);
  CampaignSpec spec = CampaignSpec::from_params(params);
  ASSERT_EQ(spec.cases.size(), 1u);
  ASSERT_EQ(spec.cases[0].id, victim);
  Scheduler scheduler(spec, make_case_runner());
  scheduler.enable_serve();

  std::thread service([&] {
    // The victim is running once its checkpoint directory appears; the
    // intruder submitted then cannot fit without displacing it.
    const fs::path started = fs::path(dir) / victim / "checkpoints";
    while (!fs::exists(started))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    CaseSpec high;
    high.id = "intruder-Ra3e4";
    high.threads = 1;
    high.steps = 5;
    high.priority = 5;
    high.tenant = "urgent";
    high.params = spec.cases[0].params;
    high.params.set("case.Ra", std::string("3e4"));
    high.params.set("campaign.steps", 5);
    std::string error;
    EXPECT_TRUE(scheduler.submit_case(high, &error)) << error;
    // Unconditional: a refused submission must still let run() return.
    scheduler.request_shutdown();
  });
  const CampaignReport report = scheduler.run();
  service.join();

  ASSERT_TRUE(report.all_done());
  EXPECT_EQ(report.submitted, 1);
  EXPECT_GE(report.preemptions, 1) << "the intruder never displaced the victim";
  const auto& out = *std::find_if(
      report.outcomes.begin(), report.outcomes.end(),
      [&](const CaseOutcome& o) { return o.id == victim; });
  EXPECT_GE(out.attempts, 2) << "preempted case did not re-run";

  // The journal shows the preemption state machine: running -> preempted ->
  // queued -> ... -> done, and the fold lands on done for both cases.
  const ManifestState folded = read_manifest(dir + "/manifest.ndjson");
  EXPECT_EQ(folded.cases.at(victim).state, "done");
  EXPECT_EQ(folded.cases.at("intruder-Ra3e4").state, "done");

  // The acceptance bar: the preempted victim's final state is bitwise
  // identical to the never-preempted reference (PR 3's exact-restart
  // guarantee, exercised through the preemption path).
  const auto serve_final = final_checkpoints(scheduler.spec());
  const fluid::Checkpoint& ck = serve_final.at(victim);
  const fluid::Checkpoint& ref_ck = ref_final.at(victim);
  EXPECT_EQ(ck.step, ref_ck.step);
  EXPECT_EQ(ck.time, ref_ck.time);
  ASSERT_EQ(ck.u.size(), ref_ck.u.size());
  for (usize i = 0; i < ck.u.size(); ++i) {
    ASSERT_EQ(ck.u[i], ref_ck.u[i]) << "u dof " << i;
    ASSERT_EQ(ck.temperature[i], ref_ck.temperature[i]) << "T dof " << i;
  }
}

}  // namespace
}  // namespace felis::sched
