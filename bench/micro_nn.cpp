// M1 micro-benchmarks: DRNN layer forward/backward throughput and the
// end-to-end prediction path used inside the control loop.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "nn/drnn.hpp"
#include "nn/gru.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/trainer.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace repro;

nn::SeqBatch random_seq(std::size_t t, std::size_t b, std::size_t d, std::uint64_t seed) {
  common::Pcg32 rng(seed);
  nn::SeqBatch seq;
  for (std::size_t i = 0; i < t; ++i) {
    seq.push_back(tensor::Matrix::random_uniform(b, d, 1.0, rng));
  }
  return seq;
}

/// One GEMM shape of the 2x32 LSTM on one kernel instantiation:
/// C[m x n] = A[m x k] * B[k x n], or with `trans_a` C = A^T * B for
/// A[k x m] (a weight gradient over a minibatch of k).
struct GemmShape {
  const char* label;
  std::size_t m, k, n;
  bool trans_a;
};

void BM_LstmGemm(benchmark::State& state, const tensor::detail::GemmKernel* kernel,
                 GemmShape shape) {
  common::Pcg32 rng(16);
  const tensor::Matrix a = shape.trans_a ? tensor::Matrix::random_uniform(shape.k, shape.m, 1.0, rng)
                                         : tensor::Matrix::random_uniform(shape.m, shape.k, 1.0, rng);
  const tensor::Matrix b = tensor::Matrix::random_uniform(shape.k, shape.n, 1.0, rng);
  tensor::Matrix c;
  const auto gemm = shape.trans_a ? kernel->matmul_transA_into : kernel->matmul_into;
  for (auto _ : state) {
    gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(shape.m * shape.k * shape.n));
}

// Names the kernel the process runs in the benchmark context, and adds one
// row per kernel instantiation the CPU supports for each LSTM GEMM shape:
// the training forward (minibatch 64, h -> 4 gates), the backward's dh, the
// weight gradient, and a control round's forward over 4 workers.
const bool kGemmRowsRegistered = [] {
  benchmark::AddCustomContext("gemm_kernel", tensor::gemm_kernel_name());
  const GemmShape shapes[] = {{"A[64x32]B[32x128]", 64, 32, 128, false},
                              {"A[64x128]B[128x32]", 64, 128, 32, false},
                              {"At[64x32]B[64x128]", 32, 64, 128, true},
                              {"A[4x32]B[32x128]", 4, 32, 128, false}};
  for (const tensor::detail::GemmKernel& kernel : tensor::detail::gemm_kernels()) {
    if (!kernel.supported) continue;
    for (const GemmShape& shape : shapes) {
      const std::string name = std::string("BM_LstmGemm/") + kernel.name + "/" + shape.label;
      benchmark::RegisterBenchmark(name.c_str(), BM_LstmGemm, &kernel, shape);
    }
  }
  return true;
}();

void BM_LstmForward(benchmark::State& state) {
  common::Pcg32 rng(1);
  auto hidden = static_cast<std::size_t>(state.range(0));
  nn::Lstm lstm(19, hidden, rng);
  nn::SeqBatch seq = random_seq(16, 32, 19, 2);
  for (auto _ : state) {
    auto out = lstm.forward(seq, false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 16 * 32);
}
BENCHMARK(BM_LstmForward)->Arg(16)->Arg(32)->Arg(64);

void BM_LstmTrainStep(benchmark::State& state) {
  common::Pcg32 rng(3);
  nn::Lstm lstm(19, 32, rng);
  nn::SeqBatch seq = random_seq(16, 32, 19, 4);
  nn::SeqBatch grads = random_seq(16, 32, 32, 5);
  for (auto _ : state) {
    lstm.zero_grads();
    auto out = lstm.forward(seq, true);
    auto dx = lstm.backward(grads);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_LstmTrainStep);

void BM_GruForward(benchmark::State& state) {
  common::Pcg32 rng(6);
  nn::Gru gru(19, 32, rng);
  nn::SeqBatch seq = random_seq(16, 32, 19, 7);
  for (auto _ : state) {
    auto out = gru.forward(seq, false);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_GruForward);

void BM_DrnnPredictSingleSequence(benchmark::State& state) {
  // One sequence through the Drnn::predict convenience (a batch of one).
  nn::DrnnConfig cfg;
  cfg.input_size = 19;
  cfg.hidden_size = 32;
  cfg.num_layers = 2;
  cfg.seed = 8;
  nn::Drnn model(cfg);
  common::Pcg32 rng(9);
  tensor::Matrix seq = tensor::Matrix::random_uniform(16, 19, 1.0, rng);
  for (auto _ : state) {
    auto out = model.predict(seq);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DrnnPredictSingleSequence);

/// The predictor's model and `workers` [16 x 19] sequences stacked as one
/// batch. Worker i's sequence is the same whatever `workers` is (worker 0's
/// is BM_DrnnPredictSingleSequence's): exp/tanh cost depends on the values,
/// so rows compared must forward the same sequences.
struct InferenceCase {
  explicit InferenceCase(std::size_t workers) : model(config()) {
    common::Pcg32 rng(9);
    batch.assign(16, tensor::Matrix(workers, 19));
    for (std::size_t i = 0; i < workers; ++i) {
      tensor::Matrix seq = tensor::Matrix::random_uniform(16, 19, 1.0, rng);
      for (std::size_t t = 0; t < 16; ++t) {
        for (std::size_t c = 0; c < 19; ++c) batch[t](i, c) = seq(t, c);
      }
    }
  }
  static nn::DrnnConfig config() {
    nn::DrnnConfig cfg;
    cfg.input_size = 19;
    cfg.hidden_size = 32;
    cfg.num_layers = 2;
    cfg.dropout = 0.1;
    cfg.seed = 8;
    return cfg;
  }
  nn::Drnn model;
  nn::SeqBatch batch;
};

void BM_DrnnPredictBatch(benchmark::State& state) {
  // A control round's inference: Arg = workers forwarded in one
  // allocation-free pass (4 = t7-bakeoff's workers per round, 1 = a lone
  // predict_next). Items are sequences.
  const auto workers = static_cast<std::size_t>(state.range(0));
  InferenceCase c(workers);
  for (auto _ : state) {
    const tensor::Matrix& out = c.model.forward(c.batch, /*training=*/false);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(workers));
}
BENCHMARK(BM_DrnnPredictBatch)->Arg(1)->Arg(4);

void BM_DrnnPredictOneByOne(benchmark::State& state) {
  // The same sequences as BM_DrnnPredictBatch, one batch of one each: what
  // batching the round saves.
  const auto workers = static_cast<std::size_t>(state.range(0));
  InferenceCase c(workers);
  std::vector<nn::SeqBatch> singles(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    for (const tensor::Matrix& step : c.batch) {
      singles[i].push_back(tensor::Matrix(1, step.cols(), step.row(i)));
    }
  }
  for (auto _ : state) {
    for (const nn::SeqBatch& one : singles) {
      const tensor::Matrix& out = c.model.forward(one, /*training=*/false);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(workers));
}
BENCHMARK(BM_DrnnPredictOneByOne)->Arg(4);

void BM_DrnnTrainEpoch(benchmark::State& state) {
  // One full training epoch (gather + forward + loss + backward + clip +
  // optimizer + validation pass) using the predictor's actual model
  // configuration (2x LSTM-32 with dropout 0.1, Adam, 15% validation tail).
  // Arg = dataset rows; 1024 approximates a pooled 420s experiment trace.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  nn::DrnnConfig cfg;
  cfg.input_size = 19;
  cfg.hidden_size = 32;
  cfg.num_layers = 2;
  cfg.dropout = 0.1;
  cfg.seed = 13;
  nn::SequenceDataset data;
  common::Pcg32 rng(14);
  for (std::size_t i = 0; i < n; ++i) {
    tensor::Matrix seq = tensor::Matrix::random_uniform(16, 19, 1.0, rng);
    data.append(std::move(seq), {rng.uniform(-1.0, 1.0)});
  }
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 64;
  tc.validation_fraction = 0.15;
  tc.seed = 15;
  nn::Drnn model(cfg);
  nn::Trainer trainer(tc);
  for (auto _ : state) {
    auto report = trainer.fit(model, data);
    benchmark::DoNotOptimize(report.epochs_run);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_DrnnTrainEpoch)->Arg(256)->Arg(1024);

void BM_DrnnTrainBatch(benchmark::State& state) {
  nn::DrnnConfig cfg;
  cfg.input_size = 19;
  cfg.hidden_size = 32;
  cfg.num_layers = 2;
  cfg.seed = 10;
  nn::Drnn model(cfg);
  nn::SeqBatch batch = random_seq(16, 64, 19, 11);
  common::Pcg32 rng(12);
  tensor::Matrix target = tensor::Matrix::random_uniform(64, 1, 1.0, rng);
  for (auto _ : state) {
    model.zero_grads();
    tensor::Matrix pred = model.forward(batch, true);
    nn::LossResult loss = nn::mse_loss(pred, target);
    model.backward(loss.grad);
    benchmark::DoNotOptimize(loss.value);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DrnnTrainBatch);

}  // namespace
