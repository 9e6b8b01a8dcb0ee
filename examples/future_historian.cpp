// The year is 2086. A historian finds a reel of emblems and a printed
// Bootstrap document. No Micr'Olonys software survives — only this
// scenario's rule: the historian may use nothing but (a) the Bootstrap
// text, (b) the scanned frames, and (c) a VeRisc emulator they wrote
// themselves from Part I of the Bootstrap.
//
// This example plays that scenario end to end: the "historian's emulator"
// is one of the independently written implementations in
// src/verisc/implementations.cc, and restoration goes exclusively through
// core::RestoreEmulatedStreaming (nested emulation of the archived
// decoders).
//
// Everything the historian must know about what is on the film — emblem
// geometry, the two RS layers, the container formats, the Bootstrap
// letter encoding and restoration chain — is specified for them in
// docs/FORMAT.md (format version core::kUleFormatVersion).

#include <cstdio>

#include "core/micr_olonys.h"
#include "filmstore/frame_store.h"
#include "olonys/bootstrap.h"
#include "verisc/implementations.h"

using namespace ule;

int main() {
  // ---- 2026: a small database is archived ----
  const std::string dump =
      "CREATE TABLE ledgers (\n"
      "    entry bigint,\n"
      "    amount decimal(15,2),\n"
      "    memo varchar\n"
      ");\n"
      "COPY ledgers (entry, amount, memo) FROM stdin;\n"
      "1\t12.50\tfirst entry\n"
      "2\t-3.75\tcorrection\n"
      "3\t100.00\tdeposit for the long future\n"
      "\\.\n";
  core::ArchiveOptions options;
  options.emblem.data_side = 65;
  filmstore::MemoryStore reel;
  auto archive = core::ArchiveDumpStreaming(dump, options, reel);
  if (!archive.ok()) return 1;

  std::printf("2026: archived %zu bytes as %zu data + %zu system emblems\n",
              dump.size(), archive.value().data_frames,
              archive.value().system_frames);
  std::printf("      Bootstrap: %d pages (%d lines of pseudocode)\n",
              olonys::PageCount(archive.value().bootstrap_text),
              olonys::PseudocodeLineCount());

  // ---- 2086: only these three artefacts survive ----
  const std::string bootstrap = archive.value().bootstrap_text;
  const std::vector<media::Image>& data_scans =
      reel.frames(mocoder::StreamId::kData);
  const std::vector<media::Image>& system_scans =
      reel.frames(mocoder::StreamId::kSystem);

  // The historian implements VeRisc from Part I. We stand in three
  // different people, each with their own implementation.
  for (const auto& impl : verisc::AllImplementations()) {
    core::RestoreStats stats;
    filmstore::VectorSource data_source(data_scans);
    filmstore::VectorSource system_source(system_scans);
    auto restored =
        core::RestoreEmulatedStreaming(data_source, system_source, bootstrap,
                                       options.emblem, &stats, impl.run);
    if (!restored.ok()) {
      std::printf("2086 [%s]: FAILED: %s\n", impl.name.c_str(),
                  restored.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "2086 [%-9s %3d LoC]: restored %zu bytes, byte-exact: %s "
        "(%llu VeRisc instructions)\n",
        impl.name.c_str(), impl.lines_of_code, restored.value().size(),
        restored.value() == dump ? "yes" : "NO",
        static_cast<unsigned long long>(stats.emulated_steps));
    if (restored.value() != dump) return 1;
  }
  std::printf("the archive outlived its software. QED.\n");
  return 0;
}
