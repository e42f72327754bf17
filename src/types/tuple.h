#ifndef PREFDB_TYPES_TUPLE_H_
#define PREFDB_TYPES_TUPLE_H_

#include <string>
#include <vector>

#include "types/value.h"

namespace prefdb {

/// A row: an ordered vector of values whose shape is described by a Schema
/// held alongside it (in a Relation). Tuples themselves carry no schema to
/// keep them cheap to copy and concatenate during joins.
using Tuple = std::vector<Value>;

/// Concatenates two tuples (join output).
Tuple ConcatTuples(const Tuple& left, const Tuple& right);

/// The values of `tuple` at `indices`, in order (projection / key extraction).
Tuple ProjectTuple(const Tuple& tuple, const std::vector<size_t>& indices);

/// Renders as "(v1, v2, ...)".
std::string TupleToString(const Tuple& tuple);

/// Hash functor over whole tuples, consistent with element-wise equality.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    size_t h = 0x345678;
    for (const Value& v : t) {
      h = h * 1000003 ^ v.Hash();
    }
    return h;
  }
};

/// Equality functor over whole tuples (element-wise Value equality).
struct TupleEq {
  bool operator()(const Tuple& a, const Tuple& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
};

}  // namespace prefdb

#endif  // PREFDB_TYPES_TUPLE_H_
