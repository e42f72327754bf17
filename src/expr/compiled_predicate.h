#ifndef PREFDB_EXPR_COMPILED_PREDICATE_H_
#define PREFDB_EXPR_COMPILED_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "storage/column_store.h"

namespace prefdb {

/// Where a compiled predicate reads schema column c: the typed column, and
/// which of the caller's row-id streams indexes it.
struct ColumnInput {
  const TypedColumn* column = nullptr;
  uint32_t stream = 0;
};

/// A bound predicate compiled once per operator into a flat program over
/// typed columns (storage/column_store.h), evaluated a batch of candidate
/// rows at a time into a selection vector. Its answer for a candidate is
/// exactly IsTruthy(bound.Eval(row)) — Expr::Eval stays the reference.
///
/// The program covers comparisons of a column with a literal or another
/// column (=, <>, <, <=, >, >=; BETWEEN is two of them under AND), AND, OR,
/// NOT, IN lists over a column, and a bare column or literal as a truth
/// value. Each leaf runs a loop specialized to its column's layout: int64
/// and double comparisons read the raw arrays, and a string literal is
/// turned into a dictionary code once, so string comparisons on a kDict
/// column compare codes (the dictionary is sorted, so ranges work too).
/// AND narrows the selection before its right operand runs, OR runs its
/// right operand on the rows its left rejected, and NOT keeps the rows its
/// operand rejected. Any other node — LIKE, arithmetic, a function, a
/// comparison over those — is a fallback leaf: it loads the columns it
/// reads into a scratch tuple per candidate and calls Expr::Eval.
///
/// A candidate is a tuple of row ids, one per stream: candidate t reads
/// row streams[s][t] of the columns of stream s. A filter over a view has
/// one stream per view input; a join residual one per input of either
/// side. Select is const and keeps no state.
class CompiledPredicate {
 public:
  /// Candidates per Select call, at most.
  static constexpr size_t kBatch = 1024;

  /// Compiles `bound` (bound to a schema whose column c is read from
  /// `inputs[c]`). `bound` must outlive the program: fallback leaves
  /// evaluate its subtrees.
  CompiledPredicate(const Expr& bound, std::vector<ColumnInput> inputs);

  /// Evaluates candidates 0..n-1 (n <= kBatch) and writes the passing ones,
  /// ascending, to `out` (room for n); returns how many passed. Only the
  /// streams ReadsStream reports are read.
  size_t Select(const uint32_t* const* streams, size_t n, uint32_t* out) const;

  /// True if some column the program reads comes from stream `s`.
  bool ReadsStream(uint32_t s) const {
    return s < reads_stream_.size() && reads_stream_[s];
  }

  /// Number of fallback leaves (Expr::Eval calls per candidate reaching
  /// them); 0 when the whole predicate compiled.
  size_t fallback_count() const { return fallbacks_; }

 private:
  enum class Op : uint8_t {
    kConst,     // `truth` for every candidate.
    kCmpLit,    // inputs[a] <cmp> literal.
    kCmpCol,    // inputs[a] <cmp> inputs[b].
    kIn,        // inputs[a] IN list.
    kTruthy,    // IsTruthy(inputs[a]).
    kAnd,       // nodes a, b.
    kOr,        // nodes a, b.
    kNot,       // node a.
    kFallback,  // IsTruthy(expr->Eval(scratch)).
  };
  struct Node {
    Op op = Op::kConst;
    CompareOp cmp = CompareOp::kEq;
    bool truth = false;
    uint32_t a = 0;
    uint32_t b = 0;
    Value literal;
    // kCmpLit on a kDict column with a string literal: the literal's
    // lower-bound code in the sorted dictionary, and whether it is there.
    uint32_t code = 0;
    bool found = false;
    std::vector<Value> list;         // kIn.
    std::vector<int64_t> int_list;   // kIn on kInt: the integral members.
    std::vector<uint8_t> member;     // kIn on kDict: per code.
    const Expr* expr = nullptr;      // kFallback.
    std::vector<uint32_t> reads;     // kFallback: the columns it reads.
  };

  uint32_t Compile(const Expr& e);
  uint32_t Add(Node node);
  uint32_t Fallback(const Expr& e);
  void Use(uint32_t column);
  size_t Run(uint32_t node, const uint32_t* const* streams, const uint32_t* sel,
             size_t n, uint32_t* out) const;
  size_t RunLeaf(const Node& node, const uint32_t* const* streams,
                 const uint32_t* sel, size_t n, uint32_t* out) const;

  std::vector<ColumnInput> inputs_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  std::vector<bool> reads_stream_;
  size_t fallbacks_ = 0;
};

}  // namespace prefdb

#endif  // PREFDB_EXPR_COMPILED_PREDICATE_H_
