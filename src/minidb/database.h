/// \file database.h
/// \brief Tables and catalog of the mini relational DBMS.
///
/// The paper's pipeline touches the DBMS only through its dump/load tools
/// (Fig. 2: `db_dump` / `db_load`), so this engine implements exactly what
/// the experiments exercise: schemas, row storage, scans with predicates,
/// simple aggregation (used by the "bare-metal queries after restore"
/// claim, E11).

#ifndef ULE_MINIDB_DATABASE_H_
#define ULE_MINIDB_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "minidb/value.h"
#include "support/status.h"

namespace ule {
namespace minidb {

/// One column definition.
struct Column {
  std::string name;
  Type type = Type::kText;
  int scale = 0;  ///< decimal fraction digits
};

/// Table schema.
struct Schema {
  std::vector<Column> columns;

  int FindColumn(const std::string& name) const;  ///< -1 when absent
};

using Row = std::vector<Value>;

/// \brief Row-store table.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t row_count() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }

  /// Appends a row; fails when the arity does not match the schema.
  Status Insert(Row row);

  /// Sequential scan; the callback returns false to stop early.
  void Scan(const std::function<bool(const Row&)>& fn) const;

  /// Counts rows matching a predicate (nullptr counts all rows).
  size_t CountWhere(const std::function<bool(const Row&)>& pred) const;

  /// Sums an int/decimal column over rows matching `pred` (nullptr = all).
  /// NULLs are skipped. Fails on text columns.
  Result<int64_t> SumWhere(const std::string& column,
                           const std::function<bool(const Row&)>& pred) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
};

/// \brief Catalog of tables.
class Database {
 public:
  /// Creates a table; fails on duplicate names.
  Result<Table*> CreateTable(const std::string& name, Schema schema);
  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  /// Table names in creation order.
  std::vector<std::string> TableNames() const;
  size_t TotalRows() const;

  /// Structural + content equality (used by archive round-trip tests).
  bool SameContentAs(const Database& other) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
};

}  // namespace minidb
}  // namespace ule

#endif  // ULE_MINIDB_DATABASE_H_
