#include "filmstore/scrub.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "filmstore/container.h"
#include "filmstore/parity.h"
#include "filmstore/reel_set.h"
#include "support/io.h"
#include "support/parallel.h"

namespace ule {
namespace filmstore {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled: deterministic field order, no deps)

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonStringArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + JsonEscape(items[i]) + "\"";
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Checkpoint journal
//
// One tab-separated line per finished archive, appended as each one
// completes (so an interrupted sweep loses at most the archives still
// in flight — never a finished verdict):
//
//   path  kind  state  records  repaired_bytes  damaged  repaired  detail
//
// List fields are ';'-joined; every field is escaped losslessly
// (\t \n \r \\ ;) so a resumed report is byte-identical to a fresh one.
// Lines starting with '#' and torn trailing lines are ignored.

constexpr char kCheckpointHeader[] = "# ule-scrub checkpoint v1";

std::string EscapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case ';': out += "\\s"; break;
      default: out += c;
    }
  }
  return out;
}

std::string UnescapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 's': out += ';'; break;
      default: out += s[i];
    }
  }
  return out;
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      parts.push_back(s.substr(start));
      return parts;
    }
    parts.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string out;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i) out += ';';
    out += EscapeField(names[i]);
  }
  return out;
}

std::vector<std::string> SplitNames(const std::string& field) {
  std::vector<std::string> names;
  if (field.empty()) return names;
  for (const std::string& part : SplitOn(field, ';')) {
    names.push_back(UnescapeField(part));
  }
  return names;
}

std::string CheckpointLine(const ArchiveHealth& health) {
  std::string line = EscapeField(health.path);
  line += '\t';
  line += EscapeField(health.kind);
  line += '\t';
  line += std::to_string(static_cast<int>(health.state));
  line += '\t';
  line += std::to_string(health.records);
  line += '\t';
  line += std::to_string(health.repaired_bytes);
  line += '\t';
  line += JoinNames(health.damaged);
  line += '\t';
  line += JoinNames(health.repaired);
  line += '\t';
  line += EscapeField(health.detail);
  return line;
}

bool ParseCheckpointLine(const std::string& line, ArchiveHealth* out) {
  if (line.empty() || line[0] == '#') return false;
  const std::vector<std::string> fields = SplitOn(line, '\t');
  if (fields.size() != 8) return false;  // torn or foreign line
  ArchiveHealth health;
  health.path = UnescapeField(fields[0]);
  health.kind = UnescapeField(fields[1]);
  char* end = nullptr;
  const long state = std::strtol(fields[2].c_str(), &end, 10);
  if (end == fields[2].c_str() || *end != '\0' || state < 0 || state > 4) {
    return false;
  }
  health.state = static_cast<ArchiveState>(state);
  health.records = std::strtoull(fields[3].c_str(), nullptr, 10);
  health.repaired_bytes = std::strtoull(fields[4].c_str(), nullptr, 10);
  health.damaged = SplitNames(fields[5]);
  health.repaired = SplitNames(fields[6]);
  health.detail = UnescapeField(fields[7]);
  *out = std::move(health);
  return true;
}

// ---------------------------------------------------------------------------
// Per-archive scrub

ArchiveHealth ScrubReelSet(const std::string& path, bool repair) {
  ArchiveHealth health;
  health.path = path;
  health.kind = "reel-set";
  auto catalog = LoadCatalog(path);
  if (!catalog.ok()) {
    // The catalog is the set's root of trust; without it the reels are
    // orphans (each may still open individually, but the set — its
    // order, identity and parity — is gone).
    health.state = ArchiveState::kDataLoss;
    health.detail = "catalog unreadable: " + catalog.status().ToString();
    health.damaged.push_back(fs::path(path).filename().string());
    return health;
  }
  const ReelCatalog& cat = catalog.value();
  const std::string dir = fs::path(path).parent_path().string();
  for (const CatalogReel& row : cat.reels) health.records += row.records;

  auto assessed = AssessSet(cat, dir);
  if (!assessed.ok()) {
    health.state = ArchiveState::kError;
    health.detail = assessed.status().ToString();
    return health;
  }
  const SetHealth& set_health = assessed.value();
  for (size_t i : set_health.damaged_data) {
    health.damaged.push_back(cat.reels[i].name);
  }
  for (size_t p : set_health.damaged_parity) {
    health.damaged.push_back(cat.parity.reels[p].name);
  }
  if (set_health.clean()) {
    health.state = ArchiveState::kHealthy;
    return health;
  }
  if (!Recoverable(cat, set_health)) {
    health.state = ArchiveState::kDataLoss;
    std::string detail = std::to_string(set_health.damaged()) +
                         " streams damaged, parity covers " +
                         std::to_string(cat.parity.parity_reels) + ":";
    for (size_t i : set_health.damaged_data) {
      const CatalogReel& row = cat.reels[i];
      detail += " " + row.name + " (records " +
                std::to_string(row.first_record) + ".." +
                std::to_string(row.first_record + row.records) + " lost)";
    }
    health.detail = detail;
    return health;
  }
  if (!repair) {
    health.state = ArchiveState::kRepairable;
    health.detail = "parity covers the damage; re-run with repair";
    return health;
  }
  ReconstructOptions ropt;
  ropt.rebuild_parity = true;
  auto rebuilt = ReconstructDamaged(cat, dir, set_health, ropt);
  if (!rebuilt.ok()) {
    health.state = ArchiveState::kError;
    health.detail = "repair failed: " + rebuilt.status().ToString();
    return health;
  }
  auto reassessed = AssessSet(cat, dir);
  if (!reassessed.ok() || !reassessed.value().clean()) {
    health.state = ArchiveState::kError;
    health.detail = "repair left the set unhealthy";
    return health;
  }
  health.state = ArchiveState::kRepaired;
  health.repaired = health.damaged;
  health.repaired_bytes = rebuilt.value();
  return health;
}

ArchiveHealth ScrubContainer(const std::string& path) {
  ArchiveHealth health;
  health.path = path;
  health.kind = "container";
  auto reel = ContainerReader::Open(path);
  if (!reel.ok()) {
    // A standalone reel has no parity to lean on; anything that stops
    // it opening is loss (an interrupted spool can still be salvaged by
    // `ulectl resume`, which this sweep never does uninvited).
    health.state = ArchiveState::kDataLoss;
    health.detail = reel.status().ToString();
    health.damaged.push_back(fs::path(path).filename().string());
    return health;
  }
  health.records = reel.value()->entries().size();
  const Status deep = reel.value()->Verify();
  if (!deep.ok()) {
    health.state = ArchiveState::kDataLoss;
    health.detail = deep.ToString();
    health.damaged.push_back(fs::path(path).filename().string());
    return health;
  }
  health.state = ArchiveState::kHealthy;
  return health;
}

bool HasExtension(const fs::path& p, const char* ext) {
  return p.extension().string() == ext;
}

/// Reel files that belong to the set at `catalog_path` — from its
/// catalog when it parses, by naming convention when it does not (a
/// corrupt catalog must not promote its orphan reels to standalone
/// archives in the report).
std::set<std::string> MemberFiles(const std::string& catalog_path) {
  std::set<std::string> members;
  const fs::path dir = fs::path(catalog_path).parent_path();
  auto catalog = LoadCatalog(catalog_path);
  if (catalog.ok()) {
    for (const CatalogReel& row : catalog.value().reels) {
      members.insert((dir / row.name).string());
    }
    for (const CatalogParityReel& row : catalog.value().parity.reels) {
      members.insert((dir / row.name).string());
    }
    return members;
  }
  const std::string stem = fs::path(catalog_path).stem().string();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() <= stem.size() + 1 ||
        name.compare(0, stem.size(), stem) != 0 ||
        name[stem.size()] != '-') {
      continue;
    }
    if (HasExtension(entry.path(), ".ulec") ||
        HasExtension(entry.path(), ".ulep")) {
      members.insert(entry.path().string());
    }
  }
  return members;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API

const char* ArchiveStateName(ArchiveState state) {
  switch (state) {
    case ArchiveState::kHealthy: return "healthy";
    case ArchiveState::kRepaired: return "repaired";
    case ArchiveState::kRepairable: return "repairable";
    case ArchiveState::kDataLoss: return "data-loss";
    case ArchiveState::kError: return "error";
  }
  return "unknown";
}

std::string ArchiveHealth::ToJson() const {
  std::string out = "{\"path\": \"" + JsonEscape(path) + "\"";
  out += ", \"kind\": \"" + JsonEscape(kind) + "\"";
  out += ", \"state\": \"" + std::string(ArchiveStateName(state)) + "\"";
  out += ", \"records\": " + std::to_string(records);
  out += ", \"damaged\": " + JsonStringArray(damaged);
  out += ", \"repaired\": " + JsonStringArray(repaired);
  out += ", \"repaired_bytes\": " + std::to_string(repaired_bytes);
  out += ", \"detail\": \"" + JsonEscape(detail) + "\"}";
  return out;
}

int FleetReport::ExitCode() const {
  if (data_loss > 0 || errors > 0) return 2;
  if (repairable > 0) return 1;
  return 0;
}

std::string FleetReport::ToJson() const {
  std::string out = "{\n  \"fleet\": {";
  out += "\"archives\": " + std::to_string(archives.size());
  out += ", \"healthy\": " + std::to_string(healthy);
  out += ", \"repaired\": " + std::to_string(repaired);
  out += ", \"repairable\": " + std::to_string(repairable);
  out += ", \"data_loss\": " + std::to_string(data_loss);
  out += ", \"errors\": " + std::to_string(errors);
  out += ", \"repaired_bytes\": " + std::to_string(repaired_bytes);
  out += "},\n  \"archives\": [";
  for (size_t i = 0; i < archives.size(); ++i) {
    out += i ? ",\n    " : "\n    ";
    out += archives[i].ToJson();
  }
  out += archives.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

Result<std::vector<std::string>> DiscoverArchives(const std::string& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    return Status::InvalidArgument("scrub root is not a directory: " + root);
  }
  std::vector<std::string> catalogs;
  std::vector<std::string> containers;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (ec) {
      return Status::IoError("cannot walk " + root + ": " + ec.message());
    }
    if (!it->is_regular_file()) continue;
    const fs::path& p = it->path();
    if (HasExtension(p, ".uler")) {
      catalogs.push_back(p.string());
    } else if (HasExtension(p, ".ulec")) {
      containers.push_back(p.string());
    }
  }
  std::set<std::string> claimed;
  for (const std::string& catalog : catalogs) {
    const std::set<std::string> members = MemberFiles(catalog);
    claimed.insert(members.begin(), members.end());
  }
  std::vector<std::string> archives;
  archives.reserve(catalogs.size() + containers.size());
  for (const std::string& catalog : catalogs) {
    archives.push_back(fs::relative(catalog, root).string());
  }
  for (const std::string& container : containers) {
    if (claimed.count(container)) continue;  // a set's member reel
    archives.push_back(fs::relative(container, root).string());
  }
  std::sort(archives.begin(), archives.end());
  return archives;
}

Result<ArchiveHealth> ScrubArchive(const std::string& path, bool repair) {
  const fs::path p(path);
  if (HasExtension(p, ".uler")) return ScrubReelSet(path, repair);
  if (HasExtension(p, ".ulec")) return ScrubContainer(path);
  return Status::InvalidArgument(
      "not a scrubbable archive (want .uler or .ulec): " + path);
}

Result<FleetReport> ScrubFleet(const std::string& root,
                               const ScrubOptions& options) {
  ULE_ASSIGN_OR_RETURN(std::vector<std::string> discovered,
                       DiscoverArchives(root));

  // Resume: verdicts already in the journal are final — their archives
  // are not touched again. Entries for archives that vanished since are
  // dropped (the fleet is what's on disk now).
  std::map<std::string, ArchiveHealth> done;
  size_t resumed = 0;
  if (!options.checkpoint_path.empty()) {
    std::ifstream in(options.checkpoint_path);
    if (in) {
      const std::set<std::string> known(discovered.begin(), discovered.end());
      std::string line;
      while (std::getline(in, line)) {
        ArchiveHealth health;
        if (!ParseCheckpointLine(line, &health)) continue;
        if (!known.count(health.path)) continue;
        if (done.emplace(health.path, std::move(health)).second) ++resumed;
      }
    }
  }

  std::vector<std::string> pending;
  for (const std::string& rel : discovered) {
    if (!done.count(rel)) pending.push_back(rel);
  }
  if (options.max_archives > 0 && pending.size() > options.max_archives) {
    pending.resize(options.max_archives);
  }

  std::mutex journal_mu;
  std::ofstream journal;
  if (!options.checkpoint_path.empty() && !pending.empty()) {
    const bool fresh = !fs::exists(options.checkpoint_path);
    journal.open(options.checkpoint_path, std::ios::app);
    if (!journal) {
      return Status::IoError("cannot open checkpoint " +
                             options.checkpoint_path);
    }
    if (fresh) journal << kCheckpointHeader << "\n";
  }

  std::vector<ArchiveHealth> fresh_results(pending.size());
  ULE_RETURN_IF_ERROR(ParallelFor(
      0, pending.size(),
      [&](size_t i) -> Status {
        const std::string& rel = pending[i];
        auto verdict = ScrubArchive(JoinPath(root, rel), options.repair);
        ArchiveHealth health;
        if (verdict.ok()) {
          health = std::move(verdict).TakeValue();
        } else {
          health.state = ArchiveState::kError;
          health.detail = verdict.status().ToString();
        }
        health.path = rel;  // report paths are root-relative
        if (journal.is_open()) {
          std::lock_guard<std::mutex> lock(journal_mu);
          journal << CheckpointLine(health) << "\n";
          journal.flush();
        }
        fresh_results[i] = std::move(health);
        return Status::OK();
      },
      options.threads));

  FleetReport report;
  report.resumed = resumed;
  report.archives.reserve(done.size() + fresh_results.size());
  for (auto& entry : done) report.archives.push_back(std::move(entry.second));
  for (ArchiveHealth& health : fresh_results) {
    report.archives.push_back(std::move(health));
  }
  std::sort(report.archives.begin(), report.archives.end(),
            [](const ArchiveHealth& a, const ArchiveHealth& b) {
              return a.path < b.path;
            });
  for (const ArchiveHealth& health : report.archives) {
    switch (health.state) {
      case ArchiveState::kHealthy: ++report.healthy; break;
      case ArchiveState::kRepaired: ++report.repaired; break;
      case ArchiveState::kRepairable: ++report.repairable; break;
      case ArchiveState::kDataLoss: ++report.data_loss; break;
      case ArchiveState::kError: ++report.errors; break;
    }
    report.repaired_bytes += health.repaired_bytes;
  }
  return report;
}

}  // namespace filmstore
}  // namespace ule
