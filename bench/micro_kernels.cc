// Microbenchmarks (google-benchmark) of the kernels the pipeline spends
// its time in: tokenization, Jaccard filtering, attention forward, GEMM,
// ARI, corruption, structural matching — plus the per-backend kernel
// rows (GEMM GFLOP/s, packed vs unpacked GEMM on the forward's shapes,
// fused softmax/LayerNorm/GELU) of the dispatched kernel subsystem
// (src/kernels). Acceptance for the AVX2 backend: >= 4x scalar GEMM
// GFLOP/s in the BM_KernelGemm rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bert/attention.h"
#include "bert/model.h"
#include "circuitgen/suite.h"
#include "kernels/aligned.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "metrics/clustering.h"
#include "nl/corruption.h"
#include "rebert/filter.h"
#include "rebert/tokenizer.h"
#include "structural/matching.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace {

using namespace rebert;

const gen::GeneratedCircuit& circuit_b05() {
  static const gen::GeneratedCircuit circuit =
      gen::generate_benchmark("b05");
  return circuit;
}

void BM_TokenizeBit(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  const core::Tokenizer tokenizer(
      {.backtrace_depth = static_cast<int>(state.range(0)),
       .tree_code_dim = 16,
       .max_seq_len = 512});
  const auto bits = nl::extract_bits(circuit.netlist);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tokenizer.tokenize_net(circuit.netlist, bits[i % bits.size()].d_net));
    ++i;
  }
}
BENCHMARK(BM_TokenizeBit)->Arg(4)->Arg(6)->Arg(8);

void BM_JaccardFilter(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  const core::Tokenizer tokenizer(
      {.backtrace_depth = 6, .tree_code_dim = 16, .max_seq_len = 512});
  const auto sequences = tokenizer.tokenize_bits(circuit.netlist);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& a = sequences[i % sequences.size()];
    const auto& b = sequences[(i + 7) % sequences.size()];
    benchmark::DoNotOptimize(
        core::jaccard_similarity(a.token_ids, b.token_ids));
    ++i;
  }
}
BENCHMARK(BM_JaccardFilter);

void BM_AttentionForward(benchmark::State& state) {
  bert::BertConfig config;
  config.hidden = 64;
  config.num_heads = 4;
  config.max_seq_len = 512;
  config.tree_code_dim = 16;
  util::Rng rng(1);
  bert::MultiHeadSelfAttention attention("bench", config, rng);
  const tensor::Tensor x =
      tensor::Tensor::randn({static_cast<int>(state.range(0)), 64}, rng);
  bert::MultiHeadSelfAttention::Cache cache;
  for (auto _ : state)
    benchmark::DoNotOptimize(attention.forward(x, cache));
}
BENCHMARK(BM_AttentionForward)->Arg(32)->Arg(64)->Arg(128);

void BM_Matmul(benchmark::State& state) {
  util::Rng rng(2);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  for (auto _ : state) benchmark::DoNotOptimize(tensor::matmul(a, b));
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(n) *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// ---- per-backend kernel rows -----------------------------------------
//
// These go through table_for(backend) directly, so one run shows every
// backend the host supports side by side regardless of REBERT_KERNELS.

void BM_KernelGemm(benchmark::State& state,
                   kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(11);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    table.gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

/// GEMM on a real forward shape (M = 45 token rows; args are K, N), with
/// B packed once up front (`packed`, what inference runs) or repacked on
/// every call (gemm).
void BM_KernelGemmForwardShape(benchmark::State& state,
                               kernels::Backend backend, bool packed) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(15);
  const int m = 45;
  const int k = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const tensor::Tensor a = tensor::Tensor::randn({m, k}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({k, n}, rng);
  kernels::AlignedFloatVector b_packed(kernels::packed_b_floats(k, n));
  kernels::pack_b(b.data(), k, n, b_packed.data());
  tensor::Tensor c({m, n});
  for (auto _ : state) {
    if (packed)
      table.gemm_packed(a.data(), b_packed.data(), c.data(), m, k, n);
    else
      table.gemm(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * m * k * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_KernelSoftmaxRows(benchmark::State& state,
                          kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(12);
  const int rows = 128, cols = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng, 3.0f);
  tensor::Tensor y = x;
  for (auto _ : state) {
    std::copy(x.data(), x.data() + x.numel(), y.data());
    table.softmax_rows(y.data(), rows, cols);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_KernelLayerNorm(benchmark::State& state,
                        kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(13);
  const int rows = 128, cols = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({rows, cols}, rng);
  const tensor::Tensor gamma = tensor::Tensor::full({cols}, 1.0f);
  const tensor::Tensor beta = tensor::Tensor::zeros({cols});
  tensor::Tensor y({rows, cols});
  for (auto _ : state) {
    table.layer_norm(x.data(), gamma.data(), beta.data(), 1e-5f, rows,
                     cols, y.data(), nullptr, nullptr);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

void BM_KernelGelu(benchmark::State& state, kernels::Backend backend) {
  const kernels::KernelTable& table = kernels::table_for(backend);
  util::Rng rng(14);
  const int n = static_cast<int>(state.range(0));
  const tensor::Tensor x = tensor::Tensor::randn({n}, rng, 2.0f);
  tensor::Tensor y({n});
  for (auto _ : state) {
    table.gelu(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void register_backend_benchmarks() {
  for (kernels::Backend backend :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    if (!kernels::backend_available(backend)) continue;
    const std::string suffix = kernels::backend_name(backend);
    benchmark::RegisterBenchmark(("BM_KernelGemm/" + suffix).c_str(),
                                 BM_KernelGemm, backend)
        ->Arg(64)->Arg(128)->Arg(256);
    for (const bool packed : {false, true}) {
      const std::string name = std::string("BM_KernelGemmForwardShape/") +
                               (packed ? "packed/" : "unpacked/") + suffix;
      benchmark::RegisterBenchmark(name.c_str(), BM_KernelGemmForwardShape,
                                   backend, packed)
          ->Args({64, 192})    // fused QKV
          ->Args({64, 256})    // FFN up
          ->Args({256, 64});   // FFN down
    }
    benchmark::RegisterBenchmark(
        ("BM_KernelSoftmaxRows/" + suffix).c_str(), BM_KernelSoftmaxRows,
        backend)
        ->Arg(128)->Arg(512);
    benchmark::RegisterBenchmark(("BM_KernelLayerNorm/" + suffix).c_str(),
                                 BM_KernelLayerNorm, backend)
        ->Arg(64)->Arg(256);
    benchmark::RegisterBenchmark(("BM_KernelGelu/" + suffix).c_str(),
                                 BM_KernelGelu, backend)
        ->Arg(1 << 14);
  }
}

void BM_PairPrediction(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  const core::Tokenizer tokenizer(
      {.backtrace_depth = 6, .tree_code_dim = 16, .max_seq_len = 256});
  const auto sequences = tokenizer.tokenize_bits(circuit.netlist);
  bert::BertConfig config = bert::eval_config(32, 256);
  config.tree_code_dim = 16;
  bert::BertPairClassifier model(config);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto pair = tokenizer.encode_pair(
        sequences[i % sequences.size()],
        sequences[(i + 3) % sequences.size()]);
    benchmark::DoNotOptimize(model.predict_same_word_probability(pair));
    ++i;
  }
}
BENCHMARK(BM_PairPrediction);

void BM_AdjustedRandIndex(benchmark::State& state) {
  util::Rng rng(3);
  const int n = static_cast<int>(state.range(0));
  std::vector<int> truth(static_cast<std::size_t>(n)),
      predicted(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    truth[static_cast<std::size_t>(i)] = i / 8;
    predicted[static_cast<std::size_t>(i)] = rng.uniform_int(0, n / 8);
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(metrics::adjusted_rand_index(truth, predicted));
}
BENCHMARK(BM_AdjustedRandIndex)->Arg(100)->Arg(1000);

void BM_CorruptNetlist(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nl::corrupt_netlist(
        circuit.netlist, {.r_index = 0.5, .seed = seed++}));
  }
}
BENCHMARK(BM_CorruptNetlist);

void BM_StructuralRecovery(benchmark::State& state) {
  const auto& circuit = circuit_b05();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        structural::recover_words_structural(circuit.netlist));
}
BENCHMARK(BM_StructuralRecovery);

}  // namespace

int main(int argc, char** argv) {
  register_backend_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
