// Quickstart: archive a small database to emblems and restore it.
//
// Demonstrates the whole public API surface in ~60 lines: build a database,
// dump it (db_dump), archive the dump (DBCoder + MOCoder + Bootstrap),
// pretend decades pass, then restore and reload it.
//
// Usage: quickstart [threads]

#include <cstdio>
#include <cstdlib>

#include "core/micr_olonys.h"
#include "dbcoder/dbcoder.h"
#include "decoders/dbdecode.h"
#include "filmstore/frame_store.h"
#include "minidb/database.h"
#include "minidb/sqldump.h"
#include "olonys/dynarisc_in_verisc.h"
#include "support/parallel.h"
#include "verisc/machine.h"

using namespace ule;

int main(int argc, char** argv) {
  // Pipeline parallelism knob, in priority order: argv[1] here, the
  // ULE_THREADS environment variable, then all hardware threads. 1 means
  // fully serial. Output is byte-identical at any setting — the thread
  // count is a property of this machine, never of the archive.
  const int threads = argc > 1 ? std::atoi(argv[1]) : 0;
  // 1. A database worth keeping for 50 years.
  minidb::Database db;
  minidb::Schema schema;
  schema.columns = {{"id", minidb::Type::kInt, 0},
                    {"name", minidb::Type::kText, 0},
                    {"balance", minidb::Type::kDecimal, 2}};
  minidb::Table* accounts = db.CreateTable("accounts", schema).TakeValue();
  accounts->Insert({minidb::Value::Int(1), minidb::Value::Text("CODD"),
                    minidb::Value::Decimal(1000)}).ok();
  accounts->Insert({minidb::Value::Int(2), minidb::Value::Text("GRAY"),
                    minidb::Value::Decimal(2000)}).ok();

  // 2. db_dump: the software-independent textual archive.
  const std::string dump = minidb::DumpSql(db);
  std::printf("dump: %zu bytes\n%s\n", dump.size(), dump.c_str());

  // 3. Archive: compress, encode to emblems, generate the Bootstrap.
  core::ArchiveOptions options;
  options.emblem.data_side = 65;  // small emblems for a small database
  options.emblem.threads = threads;
  std::printf("pipeline threads: %d\n", ResolveThreadCount(threads));
  // The frames land in an in-memory film store; a real archive would
  // stream them to a ULE-C1 container or a film recorder instead.
  filmstore::MemoryStore film;
  auto archive = core::ArchiveDumpStreaming(dump, options, film);
  if (!archive.ok()) {
    std::printf("archive failed: %s\n", archive.status().ToString().c_str());
    return 1;
  }
  std::printf("archived: %zu data emblem(s), %zu system emblem(s), "
              "Bootstrap of %zu characters\n",
              archive.value().data_frames, archive.value().system_frames,
              archive.value().bootstrap_text.size());

  // 4. Decades later: restore from the rendered frames. The recorded
  // emblem_options carry threads = 0 (the restorer picks its own
  // parallelism); re-apply this machine's knob for the restore side.
  mocoder::Options restore_options = archive.value().emblem_options;
  restore_options.threads = threads;
  auto data_frames = film.OpenFrames(mocoder::StreamId::kData);
  auto system_frames = film.OpenFrames(mocoder::StreamId::kSystem);
  auto restored = core::RestoreNativeStreaming(
      *data_frames, system_frames.get(), restore_options);
  if (!restored.ok()) {
    std::printf("restore failed: %s\n", restored.status().ToString().c_str());
    return 1;
  }
  std::printf("restored dump matches: %s\n",
              restored.value() == dump ? "yes" : "NO");

  // 5. db_load into a future DBMS.
  auto reloaded = minidb::LoadSql(restored.value());
  if (!reloaded.ok()) return 1;
  auto sum = reloaded.value().GetTable("accounts")->SumWhere("balance", nullptr);
  std::printf("sum(balance) after restoration: %.2f\n",
              static_cast<double>(sum.value()) / 100.0);

  // 6. Under the hood of the fully emulated restore: the archived
  // DBDecode program (DynaRISC) interpreted by the archived interpreter
  // (itself a VeRISC program) on the 4-instruction Machine, driven in
  // bounded slices — with the dispatch core's own instrumentation.
  auto container = dbcoder::Encode(ToBytes(dump), dbcoder::Scheme::kLzac);
  if (!container.ok()) return 1;
  const Bytes packed =
      olonys::PackNestedInput(decoders::DbDecodeProgram(), container.value());
  verisc::Machine vm;
  if (!vm.Load(olonys::DynaRiscInterpreter()).ok()) return 1;
  vm.SetInput(packed);
  while (vm.RunFor(1u << 22) == verisc::MachineState::kPaused) {
  }
  const verisc::Machine::RunStats rs = vm.LastRunStats();
  std::printf("nested emulation decoded the container: %s — %llu VeRISC "
              "instructions in %llu slices, %.1f%% retired fused\n",
              vm.output() == ToBytes(dump) ? "byte-identical" : "MISMATCH",
              static_cast<unsigned long long>(rs.retired),
              static_cast<unsigned long long>(rs.slices),
              rs.retired ? 100.0 * rs.fused / rs.retired : 0.0);
  if (vm.output() != ToBytes(dump)) return 1;
  return restored.value() == dump ? 0 : 1;
}
