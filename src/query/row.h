// Typed row format for the relational query layer (DESIGN.md §13).
//
// A Schema is an ordered list of named, typed columns (i64 / f64 / string);
// a Row holds one Value per column. Rows cross node boundaries in schema
// order using the serde:: primitives - zigzag varint for i64, raw IEEE-754
// bits for f64, length-prefixed bytes for strings - so the encoding is
// compact, strictly bounds-checked on decode, and *injective*: two rows of
// one schema encode to the same bytes iff they are equal. The differential
// test suite leans on injectivity: query results are canonicalized as sorted
// encoded-row byte strings and compared byte-for-byte between the engine
// path and the reference evaluator. A row's encoding is its cells'
// encodings concatenated with no row framing, so the encoding of a joined
// row is the left row's bytes followed by the right row's (the join relies
// on this to emit without re-encoding).
//
// Shuffle and group keys use the self-describing encode_key() form (a type
// byte before each value), so key equality on raw bytes is value equality
// across the hash-partitioner, the FlatAccTable, and the reference
// evaluator's hash maps - one definition of "same key" everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serde/serde.h"

namespace hamr::query {

enum class ColType : uint8_t { kI64 = 0, kF64 = 1, kStr = 2 };

const char* col_type_name(ColType type);

// One typed cell. Only the member selected by `type` is meaningful; the
// typed accessors throw std::invalid_argument on a kind mismatch so plan
// bugs surface as errors, not as reads of stale storage.
struct Value {
  ColType type = ColType::kI64;
  int64_t i = 0;
  double f = 0;
  std::string s;

  static Value of(int64_t v);
  static Value of(double v);
  static Value of(std::string v);
  static Value of(const char* v) { return of(std::string(v)); }

  int64_t as_i64() const;
  double as_f64() const;
  const std::string& as_str() const;

  // f64 compares by bit pattern: Value equality is representation equality,
  // matching the byte-identical contract of the differential tests.
  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
};

using Row = std::vector<Value>;

struct Column {
  std::string name;
  ColType type = ColType::kI64;
};

struct Schema {
  std::vector<Column> cols;

  size_t size() const { return cols.size(); }
  // -1 when absent.
  int index_of(std::string_view name) const;

  // Appends the row in schema order. Throws std::invalid_argument on an
  // arity or column-type mismatch.
  void encode_row(const Row& row, serde::Writer* writer) const;
  std::string encode_row(const Row& row) const;

  // Decodes one row, consuming exactly its bytes from the reader; throws
  // serde::DecodeError on truncation. The string_view overloads additionally
  // require the buffer to end with the row. The Row* forms overwrite `row`'s
  // cells in place (resizing it to the schema's arity), so a row reused
  // across calls keeps its string capacity and decodes without allocating;
  // the returning forms wrap them.
  void decode_row(serde::Reader* reader, Row* row) const;
  void decode_row(std::string_view bytes, Row* row) const;
  Row decode_row(serde::Reader* reader) const;
  Row decode_row(std::string_view bytes) const;

  // Column-major batch codec for staged shards: varint row count, then each
  // column in turn - i64/f64 as raw fixed-width runs (serde/batch.h) moved
  // with a single memcpy, strings as one length-prefixed cell per row. Same
  // arity/type errors as encode_row.
  // Note: this is a *block* layout, distinct from the injective per-row
  // encoding the differential tests canonicalize with.
  void encode_row_block(const Row* rows, size_t count,
                        serde::Writer* writer) const;
  std::string encode_row_block(const std::vector<Row>& rows) const;
  // Overwrites *rows with the block's rows in place (same reuse contract as
  // the Row* decode_row); the returning form wraps it.
  void decode_row_block(std::string_view bytes, std::vector<Row>* rows) const;
  std::vector<Row> decode_row_block(std::string_view bytes) const;

  std::string to_string() const;  // "name:type, ..." for error messages
};

// One cell in row encoding, and its inverse. encode_value throws
// std::invalid_argument unless value.type == expect; decode_value
// overwrites *out in place (reusing its string capacity) and throws
// serde::DecodeError on truncation.
void encode_value(const Value& value, ColType expect, serde::Writer* writer);
void decode_value(ColType type, serde::Reader* reader, Value* out);

// Self-describing single-value encoding (type byte + row encoding of the
// value) used for shuffle/group keys. Injective across types: an i64 5 and
// an f64 5.0 never collide.
void encode_key_value(const Value& value, serde::Writer* writer);

// Concatenated encode_key_value of row[c] for each c in cols.
void encode_key(const Row& row, const std::vector<uint32_t>& cols,
                serde::Writer* writer);
std::string encode_key(const Row& row, const std::vector<uint32_t>& cols);

// Inverse of encode_key for known key-column types; throws
// serde::DecodeError on truncation or a type-byte mismatch.
Row decode_key(std::string_view bytes, const std::vector<ColType>& types);

// Hex transport for encoded rows in sink output files (rows may contain
// arbitrary string bytes, including newlines and tabs).
void append_hex(std::string_view bytes, std::string* out);
std::string to_hex(std::string_view bytes);
std::string from_hex(std::string_view hex);  // throws std::invalid_argument

}  // namespace hamr::query
