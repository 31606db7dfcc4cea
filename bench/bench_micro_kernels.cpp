// Engineering micro-benchmarks (google-benchmark) for the simulation
// substrates: DE event queue, ISS, gate-level simulator, sequence compactor.
// Not a paper artifact — throughput hygiene for the framework itself.
#include <benchmark/benchmark.h>

#include "cfsm/cfsm.hpp"
#include "core/compactor.hpp"
#include "hw/gatesim.hpp"
#include "hwsyn/rtl.hpp"
#include "hwsyn/synth.hpp"
#include "iss/assembler.hpp"
#include "iss/iss.hpp"
#include "sim/event_queue.hpp"
#include "systems/tcpip.hpp"
#include "util/rng.hpp"

namespace socpower {
namespace {

void BM_EventQueuePostPop(benchmark::State& state) {
  sim::EventQueue q;
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i)
      q.post(rng.below(1000), static_cast<cfsm::EventId>(rng.below(8)), 0);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop_instant());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePostPop);

void BM_IssDhrystoneish(benchmark::State& state) {
  const auto prog = iss::assemble(R"(
    movi r4, 0
    movi r5, 1000
    movi r7, 0x400
  loop:
    lw   r8, 0(r7)
    add  r8, r8, r4
    sw   r8, 0(r7)
    andi r9, r4, 7
    slli r10, r9, 2
    addi r4, r4, 1
    bne  r4, r5, loop
    nop
    halt
  )", 0x10);
  iss::Iss cpu(iss::InstructionPowerModel::sparclite(), {});
  cpu.load_program(prog.program, 0x10);
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    cpu.reset_cpu();
    cpu.set_pc(0x10);
    const auto r = cpu.run();
    instructions += r.instructions;
    benchmark::DoNotOptimize(r.energy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.SetLabel("instructions/s");
}
BENCHMARK(BM_IssDhrystoneish);

void BM_GateSimAdderChurn(benchmark::State& state) {
  hw::Netlist nl;
  hwsyn::RtlBuilder rtl(&nl);
  const auto a = rtl.input_word("a", 32);
  const auto b = rtl.input_word("b", 32);
  const auto acc = rtl.reg_word(0, 32);
  rtl.connect_reg(acc, rtl.add(acc, rtl.add(a, b)));
  hw::GateSim sim(&nl);
  Rng rng(3);
  std::uint64_t evals = 0;
  for (auto _ : state) {
    sim.set_input_word(0, static_cast<std::uint32_t>(rng.next()), 32);
    sim.set_input_word(32, static_cast<std::uint32_t>(rng.next()), 32);
    benchmark::DoNotOptimize(sim.step().energy);
  }
  evals = sim.gates_evaluated();
  state.SetItemsProcessed(static_cast<std::int64_t>(evals));
  state.SetLabel("gate-evals/s");
}
BENCHMARK(BM_GateSimAdderChurn);

// The TCP/IP checksum ASIC at gate level, stepped the way an exact NIC
// co-estimation steps it: per 128-byte packet one CHK_START reaction, then
// one MEM_DATA reaction per 2-byte DMA block (a beat holding two seeded
// packet bytes), with the sampled DMA_CFG present in every reaction. One
// iteration is one staged reaction plus GateSim::step().
void BM_GateSimTcpChecksum(benchmark::State& state) {
  constexpr int kPacketBytes = 128;
  constexpr int kDmaBlock = 2;
  systems::TcpIpParams p;
  p.packet_bytes = kPacketBytes;
  p.dma_block_size = kDmaBlock;
  const systems::TcpIpSystem sys(p);
  const cfsm::Network& net = sys.network();
  const hwsyn::HwImage img = hwsyn::synthesize_cfsm(net.cfsm(sys.checksum()));
  const cfsm::EventId chk_start = net.event_id("CHK_START");
  const cfsm::EventId mem_data = net.event_id("MEM_DATA");
  const cfsm::EventId dma_cfg = net.event_id("DMA_CFG");

  Rng rng(5);
  std::vector<cfsm::ReactionInputs> stream;
  for (int packet = 0; packet < 120; ++packet) {
    stream.emplace_back();
    stream.back().set(dma_cfg, kDmaBlock);
    stream.back().set(chk_start, kPacketBytes);
    for (int block = 0; block < kPacketBytes / kDmaBlock; ++block) {
      stream.emplace_back();
      stream.back().set(dma_cfg, kDmaBlock);
      stream.back().set(mem_data,
                        static_cast<std::int32_t>(rng.below(1 << 16)));
    }
  }

  hw::GateSim sim(img.netlist.get());
  std::size_t next = 0;
  for (auto _ : state) {
    hwsyn::stage_hw_reaction(sim, img, stream[next]);
    benchmark::DoNotOptimize(sim.step().energy);
    if (++next == stream.size()) next = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["gates/step"] = benchmark::Counter(
      static_cast<double>(sim.gates_evaluated()),
      benchmark::Counter::kAvgIterations);
  state.SetLabel("steps/s; time is per step");
}
BENCHMARK(BM_GateSimTcpChecksum);

void BM_CompactorSelect(benchmark::State& state) {
  core::SequenceCompactor c(
      {.k_memory = 128, .keep_ratio = 0.25, .window = 4, .min_length = 8});
  Rng rng(9);
  std::vector<std::uint32_t> symbols(128);
  for (auto& s : symbols) s = static_cast<std::uint32_t>(rng.below(16));
  for (auto _ : state) benchmark::DoNotOptimize(c.select(symbols));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(symbols.size()));
}
BENCHMARK(BM_CompactorSelect);

}  // namespace
}  // namespace socpower

BENCHMARK_MAIN();
