// Reads every machine's resident inbox through a probe kernel's fetch():
// the same FETCH path production uses to observe worker-owned state, so a
// test sees the deliveries of the last kernel round wherever the machines
// live — in-process or inside resident shard workers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/kernel.hpp"
#include "runtime/round_engine.hpp"

namespace mpcspan::test_support {

/// Sends nothing; fetch() serializes ctx.inbox as (src, length, payload)
/// rows. Globally registered, so it resolves in workers forked before the
/// probe was first used.
class InboxProbeKernel final : public runtime::StepKernel {
 public:
  static std::string kernelName() { return "test.inbox-probe"; }

  std::vector<runtime::Message> step(const runtime::KernelCtx&) override {
    return {};
  }

  std::vector<Word> fetch(const runtime::KernelCtx& ctx) override {
    std::vector<Word> rows;
    for (const runtime::Delivery& d : ctx.inbox) {
      rows.push_back(d.src);
      rows.push_back(d.payload.size());
      rows.insert(rows.end(), d.payload.begin(), d.payload.end());
    }
    return rows;
  }
};

/// Every machine's resident inbox, decoded from the probe's rows.
inline std::vector<std::vector<runtime::Delivery>> residentInboxes(
    runtime::RoundEngine& eng) {
  const runtime::KernelId probe =
      runtime::ensureKernel<InboxProbeKernel>(eng);
  std::vector<std::vector<runtime::Delivery>> inboxes;
  for (const std::vector<Word>& rows : eng.fetchKernel(probe)) {
    std::vector<runtime::Delivery>& inbox = inboxes.emplace_back();
    for (std::size_t i = 0; i < rows.size(); i += 2 + rows[i + 1])
      inbox.push_back(
          {rows[i], runtime::Payload(rows.data() + i + 2, rows[i + 1])});
  }
  return inboxes;
}

}  // namespace mpcspan::test_support
