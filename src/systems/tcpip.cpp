#include "systems/tcpip.hpp"

#include <algorithm>
#include <cassert>

#include "systems/builder.hpp"

namespace socpower::systems {

using cfsm::ExprOp;

TcpIpSystem::TcpIpSystem(TcpIpParams params) : params_(params) {
  // The checksum operates on 16-bit words, so DMA blocks must not split a
  // word: block sizes are required to be even (as all the paper's swept
  // sizes, 2..128, are).
  assert(params_.dma_block_size % 2 == 0 && params_.dma_block_size > 0);
  // Workload: pseudo-random packet payloads, reproducible by seed.
  Rng rng(params_.seed);
  packets_.resize(static_cast<std::size_t>(params_.num_packets));
  for (auto& p : packets_) {
    p.resize(static_cast<std::size_t>(params_.packet_bytes));
    for (auto& byte : p) byte = static_cast<std::uint8_t>(rng.below(256));
  }
  build_network();
}

void TcpIpSystem::build_network() {
  ev_packet_in_ = network_.declare_event("PACKET_IN");
  ev_cp_step_ = network_.declare_event("CP_STEP");
  ev_pkt_enq_ = network_.declare_event("PKT_ENQ");
  ev_pkt_rdy_ = network_.declare_event("PKT_RDY");
  ev_pkt_deq_ = network_.declare_event("PKT_DEQ");
  ev_chk_start_ = network_.declare_event("CHK_START");
  ev_mem_req_ = network_.declare_event("MEM_REQ");
  ev_mem_data_ = network_.declare_event("MEM_DATA");
  ev_blk_done_ = network_.declare_event("BLK_DONE");
  ev_chk_sum_ = network_.declare_event("CHK_SUM");
  ev_chk_exp_ = network_.declare_event("CHK_EXP");
  ev_pkt_out_ = network_.declare_event("PKT_OUT");
  ev_desc_wr_ = network_.declare_event("DESC_WR");
  ev_dma_cfg_ = network_.declare_event("DMA_CFG");

  // ---- create_pack (software) ------------------------------------------------
  // Receives a packet from the IP layer and stores it into the shared
  // memory: a software copy/marshalling loop over the payload (one CP_STEP
  // transition per 4-byte group), then header finalization and the enqueue.
  {
    cfsm::Cfsm& c = network_.add_cfsm("create_pack");
    c.add_input(ev_packet_in_);
    c.add_input(ev_cp_step_);
    c.add_output(ev_cp_step_);
    c.add_output(ev_pkt_enq_);
    const auto SEQ = c.add_var("SEQ");
    const auto CNT = c.add_var("CNT");
    var_cp_cnt_ = CNT;
    const auto LEN = c.add_var("LEN");
    const auto PKTS = c.add_var("PKTS");  // packets queued by the IP layer
    const auto H1 = c.add_var("H1");
    const auto H2 = c.add_var("H2");
    const auto H3 = c.add_var("H3");
    const auto CRC = c.add_var("CRC");
    Behavior b{c};

    auto start_copy = [&](Behavior::N next) {
      return b.assign(
          SEQ, b.add(b.v(SEQ), b.k(1)),
          b.assign(CNT, b.v(LEN), b.emit0(ev_cp_step_, next)));
    };

    // PACKET_IN handling (the copy-loop tail chains into it so an arrival
    // in the same instant as a CP_STEP is never lost): queue the packet;
    // start copying if idle.
    const auto n_in_branch = b.assign(
        PKTS, b.add(b.v(PKTS), b.k(1)),
        b.assign(LEN, b.val(ev_packet_in_),
                 b.test(b.eq(b.v(CNT), b.k(0)), start_copy(b.end()),
                        b.end())));
    const auto n_in_test =
        b.test(b.present(ev_packet_in_), n_in_branch, b.end());

    // Header finalization + enqueue (end of the copy loop); start the next
    // queued packet if any.
    const auto n_next = b.test(b.gt(b.v(PKTS), b.k(0)),
                               start_copy(n_in_test), n_in_test);
    auto fin = b.assign(PKTS, b.sub(b.v(PKTS), b.k(1)),
                        b.emit(ev_pkt_enq_, b.v(LEN), n_next));
    fin = b.assign(CRC, b.bxor(b.v(CRC), b.shr(b.v(CRC), 8)), fin);
    fin = b.assign(CRC, b.bxor(b.mul(b.v(H3), b.k(7)), b.v(H1)), fin);
    fin = b.assign(H3, b.bor(b.v(H2), b.shl(b.v(SEQ), 8)), fin);
    fin = b.assign(H2, b.band(b.bxor(b.v(H1), b.shr(b.v(H1), 4)), b.k(255)),
                   fin);
    fin = b.assign(H1, b.add(b.mul(b.v(LEN), b.k(3)), b.v(SEQ)), fin);

    // Copy-loop body: per-4-byte-group marshalling with CRC-style reduction
    // arithmetic (multiply/divide/modulo dominated — long-latency operations
    // the additive macro-model prices comparatively well, unlike the leafy
    // control code of the per-block handler).
    const auto n_more = b.test(b.gt(b.v(CNT), b.k(0)),
                               b.emit0(ev_cp_step_, n_in_test), fin);
    using EO = cfsm::ExprOp;
    auto body = b.assign(CNT, b.sub(b.v(CNT), b.k(4)), n_more);
    body = b.assign(CRC, b.add(b.bxor(b.v(CRC), b.v(H1)), b.v(CNT)), body);
    body = b.assign(
        H3, b.bin(EO::kMod, b.add(b.v(H3), b.mul(b.v(H1), b.k(31))),
                  b.k(65521)),
        body);
    body = b.assign(
        H2, b.add(b.bin(EO::kDiv, b.v(CRC), b.k(13)),
                  b.bin(EO::kMod, b.v(H2), b.k(8191))),
        body);
    body = b.assign(
        H1, b.add(b.mul(b.v(CNT), b.k(13)),
                  b.bin(EO::kDiv, b.v(H1), b.k(7))),
        body);
    // Guard against stale CP_STEP events when idle.
    const auto n_step_guard =
        b.test(b.gt(b.v(CNT), b.k(0)), body, n_in_test);
    b.root(b.test(b.present(ev_cp_step_), n_step_guard, n_in_test));
    create_pack_ = c.id();
  }

  // ---- packet_queue (hardware) -------------------------------------------------
  {
    cfsm::Cfsm& c = network_.add_cfsm("packet_queue");
    c.add_input(ev_pkt_enq_);
    c.add_input(ev_pkt_deq_);
    c.add_output(ev_pkt_rdy_);
    const auto DEPTH = c.add_var("DEPTH");
    const auto LEN = c.add_var("LEN");
    Behavior b{c};
    // Dequeue part (runs after the enqueue part when both are present).
    const auto n_dq_rdy = b.emit(ev_pkt_rdy_, b.v(LEN), b.end());
    const auto n_dq_more = b.test(b.gt(b.v(DEPTH), b.k(0)), n_dq_rdy, b.end());
    const auto n_dq = b.assign(DEPTH, b.sub(b.v(DEPTH), b.k(1)), n_dq_more);
    const auto n_deq_test = b.test(b.present(ev_pkt_deq_), n_dq, b.end());
    // Enqueue part.
    const auto n_enq_inc =
        b.assign(DEPTH, b.add(b.v(DEPTH), b.k(1)), n_deq_test);
    const auto n_enq_rdy =
        b.emit(ev_pkt_rdy_, b.val(ev_pkt_enq_), n_enq_inc);
    const auto n_enq_empty =
        b.test(b.eq(b.v(DEPTH), b.k(0)), n_enq_rdy, n_enq_inc);
    const auto n_enq = b.assign(LEN, b.val(ev_pkt_enq_), n_enq_empty);
    b.root(b.test(b.present(ev_pkt_enq_), n_enq, n_deq_test));
    queue_ = c.id();
  }

  // ---- ip_check (software) ------------------------------------------------------
  {
    cfsm::Cfsm& c = network_.add_cfsm("ip_check");
    c.add_input(ev_pkt_rdy_);
    c.add_input(ev_blk_done_);
    c.add_input(ev_chk_sum_);
    c.add_sampled_input(ev_chk_exp_);
    c.add_output(ev_chk_start_);
    c.add_output(ev_pkt_deq_);
    c.add_output(ev_pkt_out_);
    c.add_output(ev_desc_wr_);
    const auto REM2 = c.add_var("REM2");
    const auto PROG = c.add_var("PROG");
    const auto OKS = c.add_var("OKS");
    const auto ERRS = c.add_var("ERRS");
    const auto H1 = c.add_var("H1");
    const auto H2 = c.add_var("H2");
    var_oks_ = OKS;
    var_errs_ = ERRS;
    Behavior b{c};

    // CHK_SUM branch: compare computed checksum to the expected one.
    const auto n_deq = b.emit0(ev_pkt_deq_, b.end());
    const auto n_ok = b.assign(OKS, b.add(b.v(OKS), b.k(1)),
                               b.emit(ev_pkt_out_, b.k(1), n_deq));
    const auto n_bad = b.assign(ERRS, b.add(b.v(ERRS), b.k(1)),
                                b.emit(ev_pkt_out_, b.k(0), n_deq));
    const auto n_cmp = b.test(b.eq(b.val(ev_chk_sum_), b.val(ev_chk_exp_)),
                              n_ok, n_bad);
    const auto n_sum_test = b.test(b.present(ev_chk_sum_), n_cmp, b.end());

    // BLK_DONE branch: per-DMA-block progress tracking (the software cost
    // that scales with the number of DMA grants): descriptor update, bounds
    // clamp, watchdog re-arm — short, branchy control code, which is
    // exactly the kind the additive macro-model prices worst (every leaf
    // and every test carries its full standalone-characterization harness).
    // Falls through to the CHK_SUM test because the final block's BLK_DONE
    // and the checksum result arrive in the same instant.
    auto n_blk = b.assign(PROG, b.add(b.v(PROG), b.k(1)), n_sum_test);
    // Publish the updated descriptor word (the traffic hook turns this into
    // a shared-memory write when ip_check is an ASIC).
    n_blk = b.emit(ev_desc_wr_, b.v(REM2), n_blk);
    n_blk = b.test(b.eq(b.band(b.v(PROG), b.k(3)), b.k(0)),
                   b.assign(H2, b.k(1), n_blk), n_blk);  // watchdog re-arm
    n_blk = b.test(b.lt(b.v(REM2), b.k(0)),
                   b.assign(REM2, b.k(0), n_blk), n_blk);  // bounds clamp
    n_blk = b.assign(REM2, b.sub(b.v(REM2), b.val(ev_blk_done_)), n_blk);
    const auto n_blk_test =
        b.test(b.present(ev_blk_done_), n_blk, n_sum_test);

    // PKT_RDY branch: header zeroing busywork, then start the ASIC. Falls
    // through to the BLK_DONE test — all three branches chain, so triggers
    // that land in the same instant are all served by the merged reaction.
    auto n = b.emit(ev_chk_start_, b.val(ev_pkt_rdy_), n_blk_test);
    n = b.assign(PROG, b.k(0), n);
    n = b.assign(REM2, b.val(ev_pkt_rdy_), n);
    n = b.assign(H1, b.bxor(b.v(H1), b.v(H2)), n);
    n = b.assign(H2, b.add(b.shl(b.v(H1), 1), b.k(3)), n);
    n = b.assign(H1, b.bxor(b.val(ev_pkt_rdy_), b.k(85)), n);
    b.root(b.test(b.present(ev_pkt_rdy_), n, n_blk_test));
    ip_check_ = c.id();
  }

  // ---- checksum (hardware ASIC) ---------------------------------------------------
  // Double-buffered DMA engine: one block streams through the accumulator
  // while the next block's bus read is already pending (prefetch), so the
  // ASIC keeps standing read pressure on the arbiter — which is what makes
  // the bus priority assignment a real design variable (Figure 7).
  {
    cfsm::Cfsm& c = network_.add_cfsm("checksum");
    c.add_input(ev_chk_start_);
    c.add_input(ev_mem_data_);
    c.add_sampled_input(ev_dma_cfg_);
    c.add_output(ev_mem_req_);
    c.add_output(ev_blk_done_);
    c.add_output(ev_chk_sum_);
    const auto REM = c.add_var("REM");      // bytes not yet requested
    const auto ACC = c.add_var("ACC");
    const auto WREM = c.add_var("WREM");    // words left in streaming block
    const auto BLKC = c.add_var("BLKC");    // bytes of the streaming block
    const auto WNEXT = c.add_var("WNEXT");  // words of the prefetched block
    const auto BLKN = c.add_var("BLKN");    // bytes of the prefetched block
    Behavior b{c};

    // "Prefetch one DMA block" subgraph builder (instantiated per use-site;
    // the s-graph is a DAG so a path may pass through each node once):
    //   if REM > 0: BLKN := min(REM, DMA); WNEXT := ceil(BLKN/4);
    //               REM -= BLKN; MEM_REQ(BLKN)
    auto prefetch = [&](Behavior::N next) {
      const auto emit_req = b.emit(ev_mem_req_, b.v(BLKN), next);
      const auto dec_rem =
          b.assign(REM, b.sub(b.v(REM), b.v(BLKN)), emit_req);
      const auto set_words =
          b.assign(WNEXT, b.shr(b.add(b.v(BLKN), b.k(3)), 2), dec_rem);
      const auto pick = b.test(b.le(b.v(REM), b.val(ev_dma_cfg_)),
                               b.assign(BLKN, b.v(REM), set_words),
                               b.assign(BLKN, b.val(ev_dma_cfg_), set_words));
      return b.test(b.gt(b.v(REM), b.k(0)), pick, next);
    };
    // "Promote the prefetched block to streaming" subgraph builder.
    auto promote = [&](Behavior::N next) {
      return b.assign(
          WREM, b.v(WNEXT),
          b.assign(BLKC, b.v(BLKN), b.assign(WNEXT, b.k(0), next)));
    };

    // CHK_START branch: prime the double buffer (request block 0, promote
    // it, prefetch block 1).
    auto n_start = prefetch(b.end());
    n_start = promote(n_start);
    n_start = prefetch(n_start);
    n_start = b.assign(ACC, b.k(0),
                       b.assign(REM, b.val(ev_chk_start_), n_start));

    // MEM_DATA branch: accumulate one pair of 16-bit words; on a block
    // boundary notify ip_check, promote the prefetched block and issue the
    // next prefetch — or fold & publish the final sum.
    const auto fold = [&]() {
      return b.add(b.band(b.v(ACC), b.k(0xFFFF)), b.shr(b.v(ACC), 16));
    };
    const auto n_publish =
        b.assign(ACC, fold(),
                 b.assign(ACC, fold(),
                          b.emit(ev_chk_sum_, b.v(ACC), b.end())));
    const auto n_rotate = promote(prefetch(b.end()));
    const auto n_next_or_done =
        b.test(b.gt(b.v(WNEXT), b.k(0)), n_rotate, n_publish);
    const auto n_blk_done =
        b.emit(ev_blk_done_, b.v(BLKC), n_next_or_done);
    const auto n_word_last =
        b.test(b.eq(b.v(WREM), b.k(0)), n_blk_done, b.end());
    const auto n_word = b.assign(
        ACC,
        b.add(b.v(ACC),
              b.add(b.band(b.val(ev_mem_data_), b.k(0xFFFF)),
                    // kShr is arithmetic; mask back to 16 bits so beats with
                    // the top byte >= 0x80 don't sign-extend into ACC.
                    b.band(b.shr(b.val(ev_mem_data_), 16), b.k(0xFFFF)))),
        b.assign(WREM, b.sub(b.v(WREM), b.k(1)), n_word_last));
    const auto n_data_test = b.test(b.present(ev_mem_data_), n_word, b.end());

    b.root(b.test(b.present(ev_chk_start_), n_start, n_data_test));
    checksum_ = c.id();
  }

  assert(network_.validate().empty());
}

void TcpIpSystem::configure(core::CoEstimator& est) {
  est.map_sw(create_pack_, params_.rtos_prio_create);
  est.map_hw(queue_);
  if (params_.ip_check_in_hw)
    est.map_hw(ip_check_);  // the Figure 5 SPARC + ASIC1 + ASIC2 mapping
  else
    est.map_sw(ip_check_, params_.rtos_prio_ipcheck);
  est.map_hw(checksum_, params_.checksum_rtl_estimator
                            ? core::HwEstimatorKind::kRtl
                            : core::HwEstimatorKind::kGateLevel);
  est.config().bus.dma_block_size = params_.dma_block_size;

  est.set_traffic_hook([this](cfsm::CfsmId task, const cfsm::Reaction& r,
                              const cfsm::CfsmState& pre_state,
                              std::vector<bus::BusRequest>& reqs) {
    // create_pack stores the packet into shared memory incrementally: every
    // copy-loop body execution writes the 4-byte group it just marshalled,
    // so its writes interleave with the checksum's reads of the previous
    // packet — the contention the arbitration priorities resolve.
    if (task == create_pack_ &&
        pre_state.vars[static_cast<std::size_t>(var_cp_cnt_)] > 0 &&
        mem_.write_pkt < packets_.size()) {
      const auto& pkt = packets_[mem_.write_pkt];
      const std::size_t n = std::min<std::size_t>(
          4, pkt.size() - mem_.write_off);
      bus::BusRequest w;
      w.master = 0;
      w.priority = params_.prio_create;
      w.write = true;
      w.addr = static_cast<std::uint32_t>(mem_.write_pkt * 256 +
                                          mem_.write_off);
      w.data.assign(pkt.begin() + static_cast<std::ptrdiff_t>(mem_.write_off),
                    pkt.begin() +
                        static_cast<std::ptrdiff_t>(mem_.write_off + n));
      mem_.write_off += n;
      if (mem_.write_off >= pkt.size()) {
        ++mem_.write_pkt;
        mem_.write_off = 0;
      }
      reqs.push_back(std::move(w));
    }
    for (const auto& em : r.emissions) {
      if (task == checksum_ && em.event == ev_mem_req_) {
        const auto want = static_cast<std::size_t>(em.value);  // block bytes
        if (mem_.bus_read_pkt < packets_.size()) {
          const auto& pkt = packets_[mem_.bus_read_pkt];
          const std::size_t n =
              std::min(want, pkt.size() - mem_.bus_read_off);
          bus::BusRequest rd;
          rd.master = 2;
          rd.priority = params_.prio_checksum;
          rd.write = false;
          rd.addr = static_cast<std::uint32_t>(mem_.bus_read_pkt * 256 +
                                               mem_.bus_read_off);
          rd.data.assign(pkt.begin() + static_cast<std::ptrdiff_t>(
                                           mem_.bus_read_off),
                         pkt.begin() + static_cast<std::ptrdiff_t>(
                                           mem_.bus_read_off + n));
          mem_.bus_read_off += n;
          if (mem_.bus_read_off >= pkt.size()) {
            ++mem_.bus_read_pkt;
            mem_.bus_read_off = 0;
          }
          reqs.push_back(std::move(rd));
        }
      } else if (params_.ip_check_in_hw && task == ip_check_ &&
                 em.event == ev_desc_wr_) {
        // ASIC1 updates the packet descriptor in shared memory per block.
        bus::BusRequest wr;
        wr.master = 1;
        wr.priority = params_.prio_ipcheck;
        wr.write = true;
        wr.addr = 0xE0;
        const auto v = static_cast<std::uint32_t>(em.value);
        wr.data = {static_cast<std::uint8_t>(v & 0xff),
                   static_cast<std::uint8_t>((v >> 8) & 0xff),
                   static_cast<std::uint8_t>((v >> 16) & 0xff),
                   static_cast<std::uint8_t>((v >> 24) & 0xff)};
        reqs.push_back(std::move(wr));
      } else if (task == ip_check_ && em.event == ev_chk_start_) {
        // Header fetch: the checksum header words ip_check zeroes.
        bus::BusRequest rd;
        rd.master = 1;
        rd.priority = params_.prio_ipcheck;
        rd.write = false;
        rd.addr = 0xF0;
        rd.data = {0x12, 0x34, 0x56, 0x78};
        reqs.push_back(std::move(rd));
      }
    }
  });

  est.set_environment_hook([this](const sim::EventOccurrence& o,
                                  sim::EventQueue& q) {
    if (o.event == ev_dma_cfg_) {
      mem_ = MemoryState{};  // new run: rewind the shared memory model
      return;
    }
    if (o.event != ev_mem_req_) return;
    assert(mem_.read_pkt < packets_.size() &&
           "checksum read beyond the stored packets");
    if (mem_.read_off == 0)
      q.post(o.time + 1, ev_chk_exp_,
             static_cast<std::int32_t>(expected_checksum(mem_.read_pkt)));
    const auto& pkt = packets_[mem_.read_pkt];
    const auto block_bytes = static_cast<std::size_t>(o.value);
    const std::size_t beats = (block_bytes + 3) / 4;
    mem_.stream_cursor = std::max(mem_.stream_cursor, o.time + 2);
    for (std::size_t w = 0; w < beats; ++w) {
      // Pack up to 4 bytes, little-endian, zero-padded at the tail.
      std::uint32_t beat = 0;
      for (std::size_t k = 0; k < 4; ++k) {
        const std::size_t off = mem_.read_off + 4 * w + k;
        if (4 * w + k < block_bytes && off < pkt.size())
          beat |= static_cast<std::uint32_t>(pkt[off]) << (8 * k);
      }
      q.post(mem_.stream_cursor++, ev_mem_data_,
             static_cast<std::int32_t>(beat));
    }
    mem_.read_off += block_bytes;
    if (mem_.read_off >= pkt.size()) {
      ++mem_.read_pkt;
      mem_.read_off = 0;
    }
  });
}

sim::Stimulus TcpIpSystem::stimulus() const {
  sim::Stimulus s;
  s.add(0, ev_dma_cfg_,
        static_cast<std::int32_t>(params_.dma_block_size));
  for (int p = 0; p < params_.num_packets; ++p)
    s.add(4 + static_cast<sim::SimTime>(p) * params_.packet_gap,
          ev_packet_in_, params_.packet_bytes);
  return s;
}

std::uint32_t TcpIpSystem::expected_checksum(std::size_t i) const {
  const auto& pkt = packets_.at(i);
  std::uint32_t acc = 0;
  for (std::size_t off = 0; off < pkt.size(); off += 2) {
    const std::uint32_t lo = pkt[off];
    const std::uint32_t hi = off + 1 < pkt.size() ? pkt[off + 1] : 0;
    acc += lo | (hi << 8);
  }
  acc = (acc & 0xFFFFu) + (acc >> 16);
  acc = (acc & 0xFFFFu) + (acc >> 16);
  return acc;
}

std::int32_t TcpIpSystem::packets_ok(const core::CoEstimator& est) const {
  return est.process_state(ip_check_)
      .vars[static_cast<std::size_t>(var_oks_)];
}

std::int32_t TcpIpSystem::packets_bad(const core::CoEstimator& est) const {
  return est.process_state(ip_check_)
      .vars[static_cast<std::size_t>(var_errs_)];
}

}  // namespace socpower::systems
