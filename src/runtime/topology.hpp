// Pluggable transport policies for RoundEngine — the one place where the
// three models of the paper differ at the communication layer:
//
//   MpcTopology    — [KSV10/GSZ11/BKS13] all-to-all with per-machine word
//                    budgets: in one round no machine may send or receive
//                    more than wordsPerMachine words.
//   CliqueTopology — Congested Clique (Section 8): every ordered (src,dst)
//                    pair may carry at most one single-word message per
//                    round.
//   PramTopology   — CRCW PRAM leader-pointer memory (Section 6): machines
//                    are processors, destinations are shared-memory cells,
//                    any number of single-word concurrent writes per cell;
//                    the engine resolves them Priority-CRCW (lowest writer
//                    id wins), which is deterministic.
//
// A topology only *validates and classifies* a round; routing, delivery
// ordering, and accounting are the engine's job and identical across
// models. Violations throw CapacityError — an algorithm that breaks its
// model must fail loudly.
//
// Every topology validates a round in two halves: validateSources (the
// constraints attributable to senders, checked over complete outboxes) and
// validateInbound (receive budgets, checked over per-destination word
// sums). The in-process engine and the sharded engine run the same two
// halves — sharded workers check their own sources before shipping, the
// coordinator checks the summed receive column — so a custom topology is
// enforced identically on every backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/types.hpp"

namespace mpcspan::runtime {

class Topology {
 public:
  /// How the engine resolves the validated round.
  enum class Mode {
    kDeliverAll,     // every message reaches its destination's inbox
    kPriorityWrite,  // per destination only the lowest-src write lands
  };

  /// Wire descriptor for transports that must rebuild the topology in a
  /// process sharing no memory with the coordinator (tcp remote attach).
  /// kOpaque topologies cannot cross the wire; the tcp SETUP frame rejects
  /// them with ShardError instead of silently validating nothing.
  enum class WireKind : std::uint8_t {
    kMpc = 0,
    kClique = 1,
    kPram = 2,
    kOpaque = 255,
  };

  virtual ~Topology() = default;

  virtual const char* name() const = 0;

  virtual WireKind wireKind() const { return WireKind::kOpaque; }
  /// Single scalar parameter riding the wire descriptor (wordsPerMachine
  /// for MpcTopology; unused otherwise).
  virtual std::uint64_t wireParam() const { return 0; }

  /// Validates one whole round — the single validation contract, used
  /// in-process and by the sharded engine alike: the source half over every
  /// outbox, then (when needsInboundSums()) the receive half over
  /// `received` (received[m] = words addressed to machine m; the caller
  /// gathers it in the index pass it already makes, and may pass an empty
  /// vector when needsInboundSums() is false). Destinations are already
  /// bounds-checked. Throws CapacityError on a model violation; returns the
  /// words moved.
  std::size_t validate(std::size_t numMachines,
                       const std::vector<std::vector<Message>>& outboxes,
                       const std::vector<std::uint64_t>& received) const {
    const std::size_t words = validateSources(numMachines, outboxes, 0);
    if (needsInboundSums()) validateInbound(numMachines, received);
    return words;
  }

  /// Source half, over the complete outboxes of a contiguous machine range
  /// (sliceOutboxes[i] = every message machine begin + i sends;
  /// destinations already bounds-checked). Checks each constraint
  /// attributable to those sources and returns the words they send. A
  /// shard worker runs it over its own machines before any section leaves
  /// the worker; the per-slice word counts sum to validate()'s return.
  virtual std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const = 0;

  /// True when the topology constrains per-machine *inbound* words; the
  /// engine then gathers per-destination word sums (sharded: each worker's
  /// barrier report carries its share) for validateInbound().
  virtual bool needsInboundSums() const { return false; }

  /// Receive half: received[m] = words delivered to machine m this round,
  /// summed over every source. Throws CapacityError on a violation; the
  /// default has no receiver constraints.
  virtual void validateInbound(
      std::size_t numMachines,
      const std::vector<std::uint64_t>& received) const;

  virtual Mode mode() const { return Mode::kDeliverAll; }
};

class MpcTopology final : public Topology {
 public:
  explicit MpcTopology(std::size_t wordsPerMachine)
      : wordsPerMachine_(wordsPerMachine) {}

  const char* name() const override { return "mpc"; }
  WireKind wireKind() const override { return WireKind::kMpc; }
  std::uint64_t wireParam() const override { return wordsPerMachine_; }
  std::size_t wordsPerMachine() const { return wordsPerMachine_; }
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
  bool needsInboundSums() const override { return true; }
  void validateInbound(
      std::size_t numMachines,
      const std::vector<std::uint64_t>& received) const override;

 private:
  std::size_t wordsPerMachine_;
};

class CliqueTopology final : public Topology {
 public:
  const char* name() const override { return "clique"; }
  WireKind wireKind() const override { return WireKind::kClique; }
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
};

class PramTopology final : public Topology {
 public:
  const char* name() const override { return "pram"; }
  WireKind wireKind() const override { return WireKind::kPram; }
  std::size_t validateSources(
      std::size_t numMachines,
      const std::vector<std::vector<Message>>& sliceOutboxes,
      std::size_t begin) const override;
  Mode mode() const override { return Mode::kPriorityWrite; }
};

/// Rebuilds a topology from its wire descriptor (the inverse of
/// wireKind()/wireParam()); throws std::invalid_argument for kOpaque or an
/// unknown kind byte.
std::unique_ptr<Topology> makeWireTopology(std::uint8_t kind,
                                           std::uint64_t param);

}  // namespace mpcspan::runtime
