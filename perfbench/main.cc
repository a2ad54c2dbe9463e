// perfbench: the sampnn benchmark program.
//
// One run takes one workload (a training batch size and net width) and
// repeats whole rounds until --seconds have passed: each round trains the
// paper's five methods on the synthetic MNIST stand-in, then serves the
// Standard net of the first round through an in-process InferenceService
// under a closed loop for a third of the round's length. Every output is
// checked against computations the benchmark makes on its own
// (reference.h). The last line of standard output is one JSON object:
// correct, attempted, failed and the metrics.
//
//   perfbench --workload train-batch1 --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate,
// traced run that reports the per-layer metrics (README.md lists both).
// --perturb <logit|accuracy|gradient|replay|stats> corrupts one observed
// value before its check, to show that the check rejects it.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/reference.h"
#include "perfbench/spans.h"
#include "src/core/experiment.h"
#include "src/core/trainer.h"
#include "src/data/batcher.h"
#include "src/data/synthetic.h"
#include "src/metrics/memory_tracker.h"
#include "src/nn/loss.h"
#include "src/optim/optimizer.h"
#include "src/serve/inference_service.h"
#include "src/serve/model_backend.h"
#include "src/telemetry/epoch_recorder.h"
#include "src/telemetry/metrics_registry.h"
#include "src/telemetry/telemetry.h"
#include "src/tensor/kernel_config.h"
#include "src/tensor/kernels.h"

namespace {

using namespace sampnn;
using perfbench::ArgMax;
using perfbench::Clock;
using perfbench::ReferenceNet;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------------------
// Workload make-up
// ---------------------------------------------------------------------------

constexpr size_t kNumMethods = 5;
constexpr TrainerKind kMethods[kNumMethods] = {
    TrainerKind::kStandard, TrainerKind::kDropout,
    TrainerKind::kAdaptiveDropout, TrainerKind::kAlsh, TrainerKind::kMc};
constexpr const char* kMethodNames[kNumMethods] = {
    "standard", "dropout", "adaptive_dropout", "alsh", "mc"};
// SpanRecorder keeps the name pointer, so each method's span name is a
// string literal of its own.
constexpr const char* kStepSpans[kNumMethods] = {
    "core.step.standard", "core.step.dropout", "core.step.adaptive_dropout",
    "core.step.alsh", "core.step.mc"};
constexpr size_t kStandard = 0, kAlsh = 3, kMc = 4;

struct Workload {
  const char* name;
  size_t width;  ///< units in each of the three hidden ReLU layers
  size_t batch;  ///< training batch size (ALSH is per-sample regardless)
  /// One training is one epoch over this many samples, per method. Each
  /// method's training lasts about as long as the others': ALSH runs at
  /// about three times the dense rate at width 128 and a seventh of it at
  /// width 1000.
  size_t train_samples[kNumMethods];
  /// Test accuracy is the mean over this many rounds (each with its own
  /// sub-seed), which narrows its spread across seeds.
  size_t accuracy_rounds;
};

constexpr Workload kWorkloads[] = {
    {"train-batch1", 128, 1, {1000, 1000, 1000, 3000, 1000}, 10},
    {"train-minibatch", 1000, 20, {1500, 1500, 1500, 300, 1500}, 3},
};

constexpr size_t kDepth = 3;
// GenerateBenchmark("mnist", seed, 10): 5500 train, 1000 test, 500
// validation rows of 784 features. One flipped test prediction moves
// accuracy by 0.1 point.
constexpr size_t kScale = 10;
// Threads that compute at once: one kernel thread while training; two
// service workers with one kernel thread each plus the client thread while
// serving. Both stay within a 4-core host. A single kernel thread keeps the
// training rates free of the per-call wake-ups of pool workers, which swing
// widely on a shared host.
constexpr size_t kTrainKernelThreads = 1;
// Each round of trainings is followed by a serving window a third as long,
// so serving takes about a quarter of the run.
constexpr double kServePerTrainSecond = 1.0 / 3.0;

constexpr size_t kServeWorkers = 2;
constexpr size_t kServeKernelThreads = 1;
constexpr size_t kServeQueue = 256;
constexpr size_t kServeMaxBatch = 8;
// Below the degradation trip point (0.5 x queue capacity = 128 queued).
// Eight batches' worth keeps both workers busy, so the client rarely
// sleeps and a request's latency is mostly its wait in the queue rather
// than thread wake-ups, which swing with the load on the host.
constexpr size_t kServeOutstanding = 64;
constexpr size_t kServePool = 256;  ///< distinct test rows the client cycles
constexpr size_t kServeWarmup = 2000;
// Far above any batch time, so that a stall of the host shows as latency
// rather than as failed requests.
constexpr int64_t kServeDeadlineMs = 60'000;

// Checks.
constexpr double kChanceFloorPct = 20.0;  ///< twice the 10-class chance level
constexpr double kLogitTol = 1e-3;        ///< relative to 1 + |reference logit|
constexpr size_t kFdRows = 4;
constexpr double kFdStep = 1e-6;
constexpr double kFdRelTol = 1e-2;
constexpr double kFdAbsTol = 1e-5;

// ---------------------------------------------------------------------------
// Arguments and output
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string perturb;    ///< logit | accuracy | gradient | replay | stats
  std::string trace_out;  ///< chrome://tracing file for --trace 1
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", key.c_str());
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 120.0) {
        std::fprintf(stderr, "--seconds must be in (0, 120]\n");
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (key == "--perturb") {
      if (value != "logit" && value != "accuracy" && value != "gradient" &&
          value != "replay" && value != "stats") {
        std::fprintf(stderr, "--perturb must be one of logit, accuracy, "
                             "gradient, replay, stats\n");
        return false;
      }
      args->perturb = value;
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  if (args->workload.empty() || !have_seed || args->seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--perturb <check>] [--trace-out <file>]\n");
    return false;
  }
  return true;
}

struct Output {
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Add(std::string name, double value, const char* unit) {
    Expect(std::isfinite(value), "metric " + name + " was not measured");
    metrics.push_back(Metric{std::move(name), value, unit});
  }
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  void Print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
double Mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

uint64_t SubSeed(uint64_t seed, uint64_t round) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + round + 1;  // splitmix64
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

// ---------------------------------------------------------------------------
// Counters the library exposes (read only while telemetry is on)
// ---------------------------------------------------------------------------

constexpr const char* kTensorCounters[] = {
    "tensor.gemm.flops",          "tensor.gemm.pack_a_panels",
    "tensor.gemm.pack_b_panels",  "tensor.gemm.parallel_dispatches",
    "tensor.gemm.serial_dispatches", "tensor.sparse.flops"};
constexpr size_t kNumTensorCounters = std::size(kTensorCounters);
using CounterValues = std::array<uint64_t, kNumTensorCounters>;

CounterValues ReadTensorCounters() {
  CounterValues v{};
  for (size_t i = 0; i < kNumTensorCounters; ++i) {
    v[i] = MetricsRegistry::Get().GetCounter(kTensorCounters[i]).Value();
  }
  return v;
}

HistogramSnapshot ReadHistogram(const char* name) {
  return MetricsRegistry::Get().GetHistogram(name).Snapshot();
}

double HistogramMean(const HistogramSnapshot& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) / static_cast<double>(h.count);
}

// ---------------------------------------------------------------------------
// Training
// ---------------------------------------------------------------------------

struct Training {
  std::unique_ptr<Trainer> trainer;
  std::vector<double> losses;  ///< per step, in order
  double seconds = 0.0;        ///< the epoch loop: batch fill + Step
  size_t samples = 0;
};

// One epoch through MakeTrainer + Trainer::Step over a Batcher, the loop
// RunExperiment runs (so both reach bitwise-identical nets).
StatusOr<Training> Train(size_t method, const Workload& w, uint64_t sub_seed,
                         const Dataset& train, SpanRecorder* spans) {
  const MlpConfig net_config = PaperMlpConfig(train, kDepth, w.width, sub_seed);
  const TrainerOptions options =
      PaperTrainerOptions(kMethods[method], w.batch, sub_seed);
  Training t;
  SAMPNN_ASSIGN_OR_RETURN(t.trainer, MakeTrainer(net_config, options));
  Batcher batcher(train, w.batch, sub_seed);
  t.losses.reserve(batcher.BatchesPerEpoch());
  Matrix x;
  std::vector<int32_t> y;
  const Clock::time_point start = Clock::now();
  for (;;) {
    bool more = false;
    {
      ScopedSpan span(spans, "data.fill_batch");
      more = batcher.Next(&x, &y);
    }
    if (!more) break;
    ScopedSpan span(spans, kStepSpans[method]);
    SAMPNN_ASSIGN_OR_RETURN(const double loss, t.trainer->Step(x, y));
    t.losses.push_back(loss);
  }
  t.trainer->OnEpochEnd();
  t.seconds = SecondsSince(start);
  t.samples = train.size();
  return t;
}

// Correct test predictions of `net`, by the benchmark's own argmax over the
// logits of Mlp::Forward (in RunExperiment's evaluation batches of 256).
size_t CountCorrect(const Mlp& net, const Dataset& test) {
  size_t correct = 0;
  MlpWorkspace ws;
  Matrix x;
  std::vector<int32_t> y;
  std::vector<size_t> idx;
  for (size_t begin = 0; begin < test.size(); begin += 256) {
    idx.resize(std::min<size_t>(256, test.size() - begin));
    std::iota(idx.begin(), idx.end(), begin);
    test.FillBatch(idx, &x, &y);
    const Matrix& logits = net.Forward(x, &ws);
    for (size_t r = 0; r < logits.rows(); ++r) {
      const std::span<const float> row = logits.Row(r);
      size_t best = 0;
      for (size_t j = 1; j < row.size(); ++j) {
        if (row[j] > row[best]) best = j;
      }
      if (static_cast<int32_t>(best) == y[r]) ++correct;
    }
  }
  return correct;
}

// The Standard step replayed from its public pieces. Records one span per
// piece when tracing; returns the per-step losses and leaves the net in
// `*net_out`.
StatusOr<std::vector<double>> ReplayStandard(const Workload& w,
                                             uint64_t sub_seed,
                                             const Dataset& train,
                                             SpanRecorder* spans,
                                             std::optional<Mlp>* net_out) {
  const MlpConfig net_config = PaperMlpConfig(train, kDepth, w.width, sub_seed);
  const TrainerOptions options =
      PaperTrainerOptions(TrainerKind::kStandard, w.batch, sub_seed);
  SAMPNN_ASSIGN_OR_RETURN(Mlp net, Mlp::Create(net_config));
  SAMPNN_ASSIGN_OR_RETURN(auto optimizer, MakeOptimizer(options.optimizer,
                                                        options.learning_rate));
  Batcher batcher(train, w.batch, sub_seed);
  Matrix x, grad_logits;
  std::vector<int32_t> y;
  MlpWorkspace ws;
  MlpGrads grads;
  std::vector<double> losses;
  while (batcher.Next(&x, &y)) {
    {
      ScopedSpan span(spans, "nn.forward");
      net.Forward(x, &ws);
    }
    double loss = 0.0;
    {
      ScopedSpan span(spans, "nn.loss");
      SAMPNN_ASSIGN_OR_RETURN(
          loss, SoftmaxCrossEntropy::LossAndGrad(ws.a.back(), y, &grad_logits));
    }
    {
      ScopedSpan span(spans, "nn.backward");
      net.Backward(x, ws, grad_logits, &grads);
    }
    {
      ScopedSpan span(spans, "optim.step");
      optimizer->Step(&net, grads);
    }
    losses.push_back(loss);
  }
  net_out->emplace(std::move(net));
  return losses;
}

bool SameParameters(const Mlp& a, const Mlp& b) {
  if (a.num_layers() != b.num_layers()) return false;
  for (size_t k = 0; k < a.num_layers(); ++k) {
    const Matrix& wa = a.layer(k).weights();
    const Matrix& wb = b.layer(k).weights();
    if (wa.size() != wb.size() ||
        std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)) != 0) {
      return false;
    }
    const auto ba = a.layer(k).bias();
    const auto bb = b.layer(k).bias();
    if (ba.size() != bb.size() ||
        std::memcmp(ba.data(), bb.data(), ba.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// Mlp::Backward against a central finite difference of the reference loss,
// on the weight and the bias with the largest gradient in every layer.
void CheckGradient(const Mlp& net, const Dataset& train, bool perturb,
                   Output* out) {
  std::vector<size_t> idx(kFdRows);
  std::iota(idx.begin(), idx.end(), 0);
  Matrix x, grad_logits;
  std::vector<int32_t> y;
  train.FillBatch(idx, &x, &y);
  MlpWorkspace ws;
  net.Forward(x, &ws);
  const auto loss = SoftmaxCrossEntropy::LossAndGrad(ws.a.back(), y,
                                                     &grad_logits);
  out->Expect(loss.ok(), "gradient check: loss");
  if (!loss.ok()) return;
  MlpGrads grads;
  net.Backward(x, ws, grad_logits, &grads);

  ReferenceNet ref(net);
  out->Expect(ref.ok(), "gradient check: hidden layers must be ReLU");
  for (size_t k = 0; k < net.num_layers(); ++k) {
    const Matrix& gw = grads[k].weights;
    size_t best = 0;
    for (size_t i = 1; i < gw.size(); ++i) {
      if (std::fabs(gw.data()[i]) > std::fabs(gw.data()[best])) best = i;
    }
    size_t best_b = 0;
    for (size_t j = 1; j < grads[k].bias.size(); ++j) {
      if (std::fabs(grads[k].bias[j]) > std::fabs(grads[k].bias[best_b])) {
        best_b = j;
      }
    }
    const struct {
      size_t i, j;
      double lib;
    } probes[] = {
        {best / gw.cols(), best % gw.cols(), gw.data()[best]},
        {ReferenceNet::kBias, best_b, grads[k].bias[best_b]},
    };
    for (const auto& p : probes) {
      double& param = ref.Param(k, p.i, p.j);
      const double orig = param;
      const double h = kFdStep * std::max(1.0, std::fabs(orig));
      param = orig + h;
      const double up = ref.Loss(x, y);
      param = orig - h;
      const double down = ref.Loss(x, y);
      param = orig;
      const double fd = (up - down) / (2.0 * h);
      const double lib = perturb && k == 0 ? p.lib * 1.1 : p.lib;
      char what[160];
      std::snprintf(what, sizeof(what),
                    "gradient check: layer %zu %s: Backward %.6g vs finite "
                    "difference %.6g",
                    k, p.i == ReferenceNet::kBias ? "bias" : "weight", lib, fd);
      out->Expect(std::fabs(lib - fd) <= kFdRelTol * std::fabs(fd) + kFdAbsTol,
                  what);
    }
  }
}

// Gemm / GemmTransA / GemmTransB on the workload's hidden-to-hidden layer
// shapes: the forward product, the weight gradient and the input gradient.
void MeasureGemmRates(const Workload& w, Output* out) {
  Rng rng(7);
  const size_t m = w.batch, n = w.width, k = w.width;
  const Matrix a = Matrix::RandomGaussian(m, k, rng, 0.0f, 1.0f);
  const Matrix b = Matrix::RandomGaussian(k, n, rng, 0.0f, 1.0f);
  const Matrix d = Matrix::RandomGaussian(m, n, rng, 0.0f, 1.0f);
  Matrix fwd(m, n), dw(k, n), dx(m, k);
  const double flops = 2.0 * static_cast<double>(m * n * k);
  auto rate = [&](auto&& call) {
    size_t reps = 0;
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < 0.2) {
      for (int i = 0; i < 16; ++i) call();
      reps += 16;
      elapsed = SecondsSince(start);
    }
    return flops * static_cast<double>(reps) / elapsed / 1e9;
  };
  out->Add("tensor.gflops.fwd", rate([&] { Gemm(a, b, &fwd); }), "GFLOP/s");
  out->Add("tensor.gflops.dw", rate([&] { GemmTransA(a, d, &dw); }), "GFLOP/s");
  out->Add("tensor.gflops.dx", rate([&] { GemmTransB(d, b, &dx); }), "GFLOP/s");
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

// A closed-loop client of one InferenceService that serves the Standard net
// trained in the first round. It runs one measured window after every
// training round, so that serving and training sample the same stretches of
// the run; each window is checked request by request.
class ServeSession {
 public:
  static StatusOr<std::unique_ptr<ServeSession>> Start(const Mlp& net,
                                                       const Dataset& test,
                                                       const Args& args,
                                                       SpanRecorder* spans,
                                                       Output* out) {
    std::unique_ptr<ServeSession> s(new ServeSession(net, args, spans, out));
    const size_t pool_size = std::min(kServePool, test.size());
    const ReferenceNet ref(net);
    out->Expect(ref.ok(), "serve check: hidden layers must be ReLU");
    for (size_t i = 0; i < pool_size; ++i) {
      const auto row = test.Example(i);
      s->pool_.emplace_back(row.begin(), row.end());
      s->ref_logits_.push_back(ref.Logits(row));
    }
    ServeOptions options;
    options.queue_capacity = kServeQueue;
    options.max_batch = kServeMaxBatch;
    options.workers = kServeWorkers;
    options.default_deadline_ms = kServeDeadlineMs;
    options.watchdog_budget_ms = kServeDeadlineMs;
    SAMPNN_ASSIGN_OR_RETURN(
        s->service_,
        InferenceService::Create(MakeDenseBackend(net.Clone()), options));
    SetGemmThreads(kServeKernelThreads);
    for (size_t i = 0; i < kServeOutstanding; ++i) s->Submit();
    for (size_t i = 0; i < kServeWarmup; ++i) {
      s->Complete();
      s->Submit();
    }
    SetGemmThreads(kTrainKernelThreads);
    return s;
  }

  /// Serves for `seconds` under the closed loop and records the window's
  /// rate and latency percentiles (traced windows apart).
  void Window(double seconds, bool traced) {
    SetGemmThreads(kServeKernelThreads);
    HistogramSnapshot batch_before;
    if (traced) {
      SetTelemetryEnabled(true);
      spans_->set_enabled(true);
      batch_before = ReadHistogram("serve.batch_size");
    }
    std::vector<double>& latencies = latencies_;
    latencies.clear();
    const Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    while (elapsed < seconds) {
      const double ms = Complete();
      if (ms >= 0.0) latencies.push_back(ms);
      Submit();
      elapsed = SecondsSince(start);
    }
    Figures& fig = traced ? traced_ : plain_;
    fig.completed += latencies.size();
    fig.seconds += elapsed;
    fig.p50_ms.push_back(Quantile(latencies, 0.50));
    fig.p99_ms.push_back(Quantile(latencies, 0.99));
    if (traced) {
      batches_.Merge(ReadHistogram("serve.batch_size").DeltaSince(batch_before));
      spans_->set_enabled(false);
      SetTelemetryEnabled(false);
    }
    SetGemmThreads(kTrainKernelThreads);
  }

  /// Drains and stops the service, checks its accounting against the
  /// client's, and adds the serving metrics.
  Status Finish() {
    SetGemmThreads(kServeKernelThreads);
    while (!in_flight_.empty()) Complete();
    service_->Stop(InferenceService::StopMode::kDrain);
    const ServeStats stats = service_->Stats();
    if (args_.perturb == "stats") ++client_completed_;
    out_->Expect(
        client_completed_ == stats.completed + stats.completed_degraded,
        "serve check: client completed " + std::to_string(client_completed_) +
            " != service completed " +
            std::to_string(stats.completed + stats.completed_degraded));
    out_->Expect(stats.submitted == stats.admitted + stats.shed &&
                     stats.submitted == client_submitted_,
                 "serve check: submitted != admitted + shed, or != the "
                 "client's own count");
    out_->Add("serve_rps", plain_.Rate(), "requests/s");
    out_->Add("serve_p50_ms", Median(plain_.p50_ms), "ms");
    out_->Add("serve_p99_ms", Median(plain_.p99_ms), "ms");
    if (!args_.trace) return Status::OK();
    out_->Add("serve.submit_us", Median(spans_->DurationsUs("serve.submit")),
              "us");
    out_->Add("serve.batch_size_mean", HistogramMean(batches_), "requests");
    out_->Add("serve.degraded_completions",
              static_cast<double>(stats.completed_degraded), "count");
    out_->Add("serve.degrade_transitions",
              static_cast<double>(stats.degrade_transitions), "count");
    out_->Add("trace.overhead_pct.serve",
              100.0 * (plain_.Rate() / traced_.Rate() - 1.0), "%");

    // ModelBackend::Forward called directly, at batch 1 and at max_batch.
    auto backend = MakeDenseBackend(net_.Clone());
    const CancelContext ctx;
    Matrix logits;
    for (const size_t rows : {size_t{1}, kServeMaxBatch}) {
      Matrix batch(rows, net_.input_dim());
      for (size_t r = 0; r < rows; ++r) {
        std::copy(pool_[r].begin(), pool_[r].end(), batch.Row(r).begin());
      }
      std::vector<double> us;
      for (int rep = 0; rep < 400; ++rep) {
        const Clock::time_point t = Clock::now();
        SAMPNN_RETURN_NOT_OK(
            backend->Forward(batch, ctx, ServeQuality::kFull, &logits));
        us.push_back(SecondsSince(t) * 1e6);
      }
      out_->Add(rows == 1 ? "serve.backend_forward_us.b1"
                          : "serve.backend_forward_us.bmax",
                Median(us), "us");
    }
    SetGemmThreads(kTrainKernelThreads);
    return Status::OK();
  }

 private:
  struct InFlight {
    std::future<InferenceResult> result;
    Clock::time_point submitted;
    size_t row = 0;
  };
  struct Figures {
    uint64_t completed = 0;  // over all windows
    double seconds = 0.0;
    std::vector<double> p50_ms, p99_ms;  // one entry per window
    double Rate() const { return static_cast<double>(completed) / seconds; }
  };

  ServeSession(const Mlp& net, const Args& args, SpanRecorder* spans,
               Output* out)
      : net_(net.Clone()), args_(args), spans_(spans), out_(out),
        perturb_logit_(args.perturb == "logit") {}

  void Submit() {
    InFlight f;
    f.row = next_row_++ % pool_.size();
    f.submitted = Clock::now();
    {
      ScopedSpan span(spans_, "serve.submit");
      f.result = service_->Submit(pool_[f.row]);
    }
    ++client_submitted_;
    ++out_->attempted;
    in_flight_.push_back(std::move(f));
  }

  // Waits for the oldest request, checks it, and returns its latency in ms
  // on the client's clock (negative when it failed).
  double Complete() {
    InFlight f = std::move(in_flight_.front());
    in_flight_.pop_front();
    InferenceResult r = f.result.get();
    const double ms = SecondsSince(f.submitted) * 1e3;
    if (!r.status.ok()) {
      ++out_->failed;
      return -1.0;
    }
    ++client_completed_;
    const std::vector<double>& want = ref_logits_[f.row];
    if (perturb_logit_ && !r.logits.empty()) {
      r.logits[0] += 0.05f * (1.0f + std::fabs(r.logits[0]));
      perturb_logit_ = false;
    }
    bool close = r.logits.size() == want.size();
    for (size_t j = 0; close && j < want.size(); ++j) {
      close = std::fabs(r.logits[j] - want[j]) <=
              kLogitTol * (1.0 + std::fabs(want[j]));
    }
    out_->Expect(close, "serve check: logits of row " + std::to_string(f.row) +
                            " differ from the double-precision forward pass");
    const size_t top = ArgMax(want);
    double runner_up = -1e300;
    for (size_t j = 0; j < want.size(); ++j) {
      if (j != top) runner_up = std::max(runner_up, want[j]);
    }
    // A near-tie in the reference may legitimately flip in float.
    const bool near_tie =
        want[top] - runner_up <= 2.0 * kLogitTol * (1.0 + std::fabs(want[top]));
    out_->Expect(static_cast<size_t>(r.predicted) == top || near_tie,
                 "serve check: predicted class of row " +
                     std::to_string(f.row) + " is not the reference argmax");
    return ms;
  }

  const Mlp net_;
  const Args& args_;
  SpanRecorder* spans_;
  Output* out_;
  bool perturb_logit_;
  std::unique_ptr<InferenceService> service_;
  std::vector<std::vector<float>> pool_;
  std::vector<std::vector<double>> ref_logits_;
  std::deque<InFlight> in_flight_;
  size_t next_row_ = 0;
  uint64_t client_submitted_ = 0, client_completed_ = 0;
  Figures plain_, traced_;
  std::vector<double> latencies_;  // of the current window, in ms
  HistogramSnapshot batches_;
};

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct MethodFigures {
  std::vector<double> plain_s;     ///< untraced training seconds per round
  std::vector<double> traced_s;    ///< traced training seconds per round
  std::vector<double> accuracy;    ///< % per round
  std::vector<double> forward_s, backward_s, sampling_s, rebuild_s;
  std::vector<double> active_fraction;
  size_t samples = 0;              ///< per training
  double rss_growth_mb = 0.0;      ///< during its first training
};

int Run(const Args& args, Clock::time_point process_start) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  Output out;
  SpanRecorder spans(process_start);

  // ---- set-up: threads, data ----
  SetTelemetryEnabled(false);
  SetGemmThreads(kTrainKernelThreads);
  auto generated = GenerateBenchmark("mnist", args.seed, kScale);
  if (!generated.ok()) {
    std::fprintf(stderr, "data: %s\n", generated.status().ToString().c_str());
    return 1;
  }
  const DatasetSplits data = std::move(generated).value();
  const double setup_s = SecondsSince(process_start);

  // ---- training rounds ----
  std::array<MethodFigures, kNumMethods> figs;
  std::unique_ptr<ServeSession> serving;
  CounterValues tensor_delta{};
  size_t traced_samples = 0;
  HistogramSnapshot lsh_active, mc_delta, mc_batch;
  const Clock::time_point run_start = Clock::now();
  for (size_t round = 0;
       round < w.accuracy_rounds || SecondsSince(run_start) < args.seconds;
       ++round) {
    const uint64_t sub_seed = SubSeed(args.seed, round);
    const bool traced = args.trace && round % 2 == 1;
    const Clock::time_point round_start = Clock::now();
    for (size_t m = 0; m < kNumMethods; ++m) {
      MethodFigures& f = figs[m];
      f.samples = w.train_samples[m];
      std::vector<size_t> idx(f.samples);
      for (size_t i = 0; i < idx.size(); ++i) {
        idx[i] = (round * 997 + i) % data.train.size();
      }
      const Dataset train = data.train.Subset(idx);

      const CounterValues before = traced ? ReadTensorCounters() : CounterValues{};
      const HistogramSnapshot active_before = ReadHistogram("lsh.query.active");
      const HistogramSnapshot delta_before =
          ReadHistogram("approx.mc.delta_samples");
      const HistogramSnapshot batch_before =
          ReadHistogram("approx.mc.batch_samples");
      MemoryTracker memory;
      SetTelemetryEnabled(traced);
      spans.set_enabled(traced);
      StatusOr<Training> trained = Train(m, w, sub_seed, train, &spans);
      spans.set_enabled(false);
      SetTelemetryEnabled(false);
      ++out.attempted;
      if (!trained.ok()) {
        std::fprintf(stderr, "%s training: %s\n", kMethodNames[m],
                     trained.status().ToString().c_str());
        return 1;
      }
      Training& t = trained.value();
      if (round == 0) {
        f.rss_growth_mb = static_cast<double>(memory.GrowthBytes()) / 1e6;
      }
      (traced ? f.traced_s : f.plain_s).push_back(t.seconds);
      std::fprintf(stderr, "round %zu %-16s %5zu samples %7.3f s%s\n", round,
                   kMethodNames[m], t.samples, t.seconds,
                   traced ? " (traced)" : "");

      size_t correct = CountCorrect(t.trainer->net(), data.test);
      f.accuracy.push_back(100.0 * static_cast<double>(correct) /
                           static_cast<double>(data.test.size()));

      if (traced) {
        const CounterValues after = ReadTensorCounters();
        for (size_t i = 0; i < kNumTensorCounters; ++i) {
          tensor_delta[i] += after[i] - before[i];
        }
        traced_samples += t.samples;
        const SplitTimer& timer = t.trainer->timer();
        f.forward_s.push_back(timer.Seconds(kPhaseForward));
        f.backward_s.push_back(timer.Seconds(kPhaseBackward));
        f.sampling_s.push_back(timer.Seconds(kPhaseSampling));
        f.rebuild_s.push_back(timer.Seconds(kPhaseHashRebuild));
        EpochTelemetry record;
        t.trainer->FillTelemetry(&record);
        f.active_fraction.push_back(record.active_node_fraction);
        if (m == kAlsh) {
          lsh_active.Merge(ReadHistogram("lsh.query.active").DeltaSince(active_before));
        }
        if (m == kMc) {
          mc_delta.Merge(
              ReadHistogram("approx.mc.delta_samples").DeltaSince(delta_before));
          mc_batch.Merge(
              ReadHistogram("approx.mc.batch_samples").DeltaSince(batch_before));
        }
      }

      if (round != 0) continue;
      // ---- checks on the first round's trainings ----
      ExperimentConfig config;
      config.trainer = PaperTrainerOptions(kMethods[m], w.batch, sub_seed);
      config.epochs = 1;
      config.batch_size = w.batch;
      config.data_seed = sub_seed;
      DatasetSplits splits;
      splits.train = train;
      splits.test = data.test;
      ++out.attempted;
      const auto result = RunExperiment(
          PaperMlpConfig(train, kDepth, w.width, sub_seed), config, splits);
      if (!result.ok()) {
        std::fprintf(stderr, "%s RunExperiment: %s\n", kMethodNames[m],
                     result.status().ToString().c_str());
        return 1;
      }
      // The same epoch, timed the same way by the library: one more sample
      // of the method's rate.
      f.plain_s.push_back(result.value().train_seconds);
      if (args.perturb == "accuracy" && m == kStandard) ++correct;
      const double library_correct =
          result.value().final_test_accuracy *
          static_cast<double>(data.test.size());
      out.Expect(std::fabs(library_correct - static_cast<double>(correct)) < 1e-6,
                 std::string(kMethodNames[m]) + ": recounted " +
                     std::to_string(correct) + " correct, RunExperiment's "
                     "final_test_accuracy gives " +
                     std::to_string(library_correct));
      const double mean_loss =
          std::accumulate(t.losses.begin(), t.losses.end(), 0.0) /
          static_cast<double>(t.losses.size());
      out.Expect(result.value().epochs.size() == 1 &&
                     result.value().epochs[0].train_loss == mean_loss,
                 std::string(kMethodNames[m]) +
                     ": mean training loss differs from RunExperiment's");
      if (m != kStandard) continue;

      std::optional<Mlp> replayed;
      spans.set_enabled(args.trace);
      ++out.attempted;
      auto replay = ReplayStandard(w, sub_seed, train, &spans, &replayed);
      spans.set_enabled(false);
      if (!replay.ok()) {
        std::fprintf(stderr, "replay: %s\n", replay.status().ToString().c_str());
        return 1;
      }
      std::vector<double>& losses = replay.value();
      if (args.perturb == "replay" && !losses.empty()) {
        losses[losses.size() / 2] =
            std::nextafter(losses[losses.size() / 2], 1e300);
      }
      out.Expect(losses == t.losses,
                 "replayed Standard losses differ from StandardTrainer::Step's");
      out.Expect(SameParameters(*replayed, t.trainer->net()),
                 "replayed Standard weights differ from StandardTrainer's");
      ++out.attempted;
      CheckGradient(t.trainer->net(), train, args.perturb == "gradient", &out);
      ++out.attempted;
      auto session = ServeSession::Start(t.trainer->net(), data.test, args,
                                         &spans, &out);
      if (!session.ok()) {
        std::fprintf(stderr, "serve: %s\n",
                     session.status().ToString().c_str());
        return 1;
      }
      serving = std::move(session).value();
    }
    serving->Window(kServePerTrainSecond * SecondsSince(round_start), traced);
  }

  // Standard, Adaptive-Dropout and MC must learn.
  for (const size_t m : {kStandard, size_t{2}, kMc}) {
    const std::vector<double> acc(figs[m].accuracy.begin(),
                                  figs[m].accuracy.begin() + w.accuracy_rounds);
    out.Expect(Mean(acc) >= kChanceFloorPct,
               std::string(kMethodNames[m]) + " accuracy " +
                   std::to_string(Mean(acc)) + "% is not above twice chance");
  }

  // ---- per-layer GEMM rates (traced run) ----
  if (args.trace) MeasureGemmRates(w, &out);

  const Status served = serving->Finish();
  if (!served.ok()) {
    std::fprintf(stderr, "serve: %s\n", served.ToString().c_str());
    return 1;
  }

  // ---- metrics ----
  for (size_t m = 0; m < kNumMethods; ++m) {
    const MethodFigures& f = figs[m];
    const std::string name = kMethodNames[m];
    const std::vector<double> acc(f.accuracy.begin(),
                                  f.accuracy.begin() + w.accuracy_rounds);
    out.Add(name + "_acc", Mean(acc), "%");
    out.Add(name + "_sps", static_cast<double>(f.samples) / Median(f.plain_s),
            "samples/s");
    if (!args.trace) continue;
    const std::vector<double> step_us = spans.DurationsUs(kStepSpans[m]);
    out.Add("core.step_us.p50." + name, Quantile(step_us, 0.50), "us");
    out.Add("core.step_us.p99." + name, Quantile(step_us, 0.99), "us");
    out.Add("core.forward_s." + name, Median(f.forward_s), "s");
    out.Add("core.backward_s." + name, Median(f.backward_s), "s");
    if (m == kAlsh || m == kMc) {
      out.Add("core.sampling_s." + name, Median(f.sampling_s), "s");
    }
    out.Add("mem.rss_growth_mb." + name, f.rss_growth_mb, "MB");
    out.Add("trace.overhead_pct." + name,
            100.0 * (Median(f.traced_s) / Median(f.plain_s) - 1.0), "%");
  }
  if (args.trace) {
    const double per_sample = 1.0 / static_cast<double>(traced_samples);
    for (size_t i = 0; i < kNumTensorCounters; ++i) {
      out.Add(std::string(kTensorCounters[i]),
              static_cast<double>(tensor_delta[i]) * per_sample, "count/sample");
    }
    const std::vector<double> optim = spans.DurationsUs("optim.step");
    const size_t tenth = std::max<size_t>(1, optim.size() / 10);
    out.Add("nn.forward_us", Median(spans.DurationsUs("nn.forward")), "us");
    out.Add("nn.loss_us", Median(spans.DurationsUs("nn.loss")), "us");
    out.Add("nn.backward_us", Median(spans.DurationsUs("nn.backward")), "us");
    out.Add("optim.step_us", Median(optim), "us");
    out.Add("optim.step_us.first_tenth",
            Median(std::vector<double>(optim.begin(), optim.begin() + tenth)),
            "us");
    out.Add("optim.step_us.last_tenth",
            Median(std::vector<double>(optim.end() - tenth, optim.end())),
            "us");
    out.Add("lsh.rebuild_s", Median(figs[kAlsh].rebuild_s), "s");
    out.Add("lsh.active_fraction", Median(figs[kAlsh].active_fraction),
            "fraction");
    out.Add("lsh.query.active", lsh_active.Quantile(0.5), "nodes");
    out.Add("approx.mc.delta_samples", HistogramMean(mc_delta), "samples");
    out.Add("approx.mc.batch_samples", HistogramMean(mc_batch), "samples");
    out.Add("data.fill_batch_us", Median(spans.DurationsUs("data.fill_batch")),
            "us");
    if (!args.trace_out.empty() &&
        !spans.WriteChromeTrace(args.trace_out, 20'000)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  } else {
    out.Add("setup_s", setup_s, "s");
  }
  out.Add("peak_rss_mb", static_cast<double>(MemoryTracker().PeakBytes()) / 1e6,
          "MB");
  std::fprintf(stderr, "%s seed %llu: run %.1f s\n", w.name,
               static_cast<unsigned long long>(args.seed),
               SecondsSince(process_start));
  out.Print();
  return out.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  return Run(args, process_start);
}
