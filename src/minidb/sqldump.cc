#include "minidb/sqldump.h"

#include <charconv>
#include <sstream>
#include <string_view>

namespace ule {
namespace minidb {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

Result<Column> ParseColumnDef(std::string_view def, int line) {
  def = Trim(def);
  const size_t sp = def.find(' ');
  if (sp == std::string_view::npos) {
    return Status::Corruption("dump line " + std::to_string(line) +
                              ": bad column definition");
  }
  Column col;
  col.name = std::string(def.substr(0, sp));
  std::string type(Trim(def.substr(sp + 1)));
  if (type == "bigint" || type == "integer" || type == "int") {
    col.type = Type::kInt;
  } else if (type.rfind("decimal", 0) == 0 || type.rfind("numeric", 0) == 0) {
    col.type = Type::kDecimal;
    const size_t comma = type.find(',');
    const size_t close = type.find(')');
    col.scale = 2;
    if (comma != std::string::npos && close != std::string::npos &&
        close > comma) {
      const std::string_view digits =
          Trim(std::string_view(type).substr(comma + 1, close - comma - 1));
      const auto [ptr, ec] = std::from_chars(
          digits.data(), digits.data() + digits.size(), col.scale);
      if (ec != std::errc() || ptr != digits.data() + digits.size() ||
          col.scale < 0 || col.scale > kMaxDecimalScale) {
        return Status::Corruption(
            "dump line " + std::to_string(line) + ": decimal scale '" +
            std::string(digits) + "' outside [0, " +
            std::to_string(kMaxDecimalScale) + "]");
      }
    }
  } else if (type == "date") {
    col.type = Type::kDate;
  } else if (type == "varchar" || type == "text" ||
             type.rfind("varchar(", 0) == 0 || type.rfind("char(", 0) == 0) {
    col.type = Type::kText;
  } else {
    return Status::Corruption("dump line " + std::to_string(line) +
                              ": unknown type '" + type + "'");
  }
  return col;
}

}  // namespace

std::string DumpSql(const Database& db) {
  std::string out;
  out += "-- ULE archive dump\n";
  out += "-- format: plain SQL (CREATE TABLE + COPY), tab-separated rows\n\n";
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name);
    out += "CREATE TABLE " + name + " (\n";
    const auto& cols = table->schema().columns;
    for (size_t i = 0; i < cols.size(); ++i) {
      out += "    " + cols[i].name + " " +
             SqlTypeName(cols[i].type, cols[i].scale);
      out += (i + 1 < cols.size()) ? ",\n" : "\n";
    }
    out += ");\n";
    out += "COPY " + name + " (";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i) out += ", ";
      out += cols[i].name;
    }
    out += ") FROM stdin;\n";
    table->Scan([&](const Row& row) {
      for (size_t i = 0; i < row.size(); ++i) {
        if (i) out.push_back('\t');
        out += row[i].ToDumpString(cols[i].type, cols[i].scale);
      }
      out.push_back('\n');
      return true;
    });
    out += "\\.\n\n";
  }
  return out;
}

Result<Database> LoadSql(const std::string& dump) {
  Database db;
  std::istringstream in(dump);
  std::string line;
  int line_no = 0;
  Table* copy_target = nullptr;

  // State for a CREATE TABLE block under construction.
  bool in_create = false;
  std::string create_name;
  Schema create_schema;

  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (copy_target != nullptr) {
      if (line == "\\.") {
        copy_target = nullptr;
        continue;
      }
      // One data row, tab-separated (raw `line`, not trimmed: text fields
      // may begin/end with spaces). Field count must match exactly.
      const auto& cols = copy_target->schema().columns;
      std::vector<std::string> fields;
      size_t start = 0;
      while (true) {
        const size_t tab = line.find('\t', start);
        if (tab == std::string::npos) {
          fields.push_back(line.substr(start));
          break;
        }
        fields.push_back(line.substr(start, tab - start));
        start = tab + 1;
      }
      if (fields.size() != cols.size()) {
        return Status::Corruption("dump line " + std::to_string(line_no) +
                                  ": wrong column count");
      }
      Row row;
      for (size_t col = 0; col < cols.size(); ++col) {
        ULE_ASSIGN_OR_RETURN(
            Value v, Value::FromDumpString(fields[col], cols[col].type,
                                           cols[col].scale));
        row.push_back(std::move(v));
      }
      ULE_RETURN_IF_ERROR(copy_target->Insert(std::move(row)));
      continue;
    }

    if (in_create) {
      if (sv == ");") {
        in_create = false;
        ULE_RETURN_IF_ERROR(
            db.CreateTable(create_name, create_schema).status());
        create_schema = Schema{};
        continue;
      }
      std::string_view def = sv;
      if (!def.empty() && def.back() == ',') def.remove_suffix(1);
      ULE_ASSIGN_OR_RETURN(Column col, ParseColumnDef(def, line_no));
      create_schema.columns.push_back(std::move(col));
      continue;
    }

    if (sv.empty() || sv.substr(0, 2) == "--") continue;

    if (sv.rfind("CREATE TABLE ", 0) == 0) {
      std::string_view rest = Trim(sv.substr(13));
      const size_t paren = rest.find('(');
      create_name = std::string(
          Trim(paren == std::string_view::npos ? rest : rest.substr(0, paren)));
      in_create = true;
      // Inline single-line definition is not produced by DumpSql; reject.
      if (paren != std::string_view::npos &&
          rest.find(");") != std::string_view::npos) {
        return Status::Corruption("dump line " + std::to_string(line_no) +
                                  ": single-line CREATE TABLE unsupported");
      }
      continue;
    }

    if (sv.rfind("COPY ", 0) == 0) {
      std::string_view rest = Trim(sv.substr(5));
      const size_t sp = rest.find_first_of(" (");
      const std::string name(rest.substr(0, sp));
      copy_target = db.GetTable(name);
      if (copy_target == nullptr) {
        return Status::Corruption("dump line " + std::to_string(line_no) +
                                  ": COPY into unknown table " + name);
      }
      if (rest.find("FROM stdin;") == std::string_view::npos) {
        return Status::Corruption("dump line " + std::to_string(line_no) +
                                  ": COPY must read FROM stdin");
      }
      continue;
    }

    return Status::Corruption("dump line " + std::to_string(line_no) +
                              ": unrecognised statement '" +
                              std::string(sv.substr(0, 40)) + "'");
  }
  if (in_create || copy_target != nullptr) {
    return Status::Corruption("dump ended inside a block");
  }
  return db;
}

}  // namespace minidb
}  // namespace ule
