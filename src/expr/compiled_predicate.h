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

/// What programs compiled over typed columns share: where each schema
/// column is read from, the row-id streams that takes, and fallback leaves,
/// which load their columns into a scratch tuple and call Expr::Eval.
class ColumnProgram {
 public:
  /// True if some column the program reads comes from stream `s`.
  bool ReadsStream(uint32_t s) const {
    return s < reads_stream_.size() && reads_stream_[s];
  }

  /// Number of fallback leaves (Expr::Eval calls per candidate reaching
  /// them); 0 when the whole expression compiled.
  size_t fallback_count() const { return fallbacks_; }

 protected:
  explicit ColumnProgram(std::vector<ColumnInput> inputs) : inputs_(std::move(inputs)) {}

  void Use(uint32_t column);
  /// Counts a fallback leaf over `e`; returns the columns it reads, ascending.
  std::vector<uint32_t> FallbackReads(const Expr& e);
  /// Loads columns `reads` of candidate t into `scratch` (inputs_.size() wide).
  void Load(const std::vector<uint32_t>& reads, const uint32_t* const* streams,
            uint32_t t, Tuple* scratch) const;

  std::vector<ColumnInput> inputs_;

 private:
  std::vector<bool> reads_stream_;
  size_t fallbacks_ = 0;
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
class CompiledPredicate : public ColumnProgram {
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
  size_t Run(uint32_t node, const uint32_t* const* streams, const uint32_t* sel,
             size_t n, uint32_t* out) const;
  size_t RunLeaf(const Node& node, const uint32_t* const* streams,
                 const uint32_t* sel, size_t n, uint32_t* out) const;

  std::vector<Node> nodes_;
  uint32_t root_ = 0;
};

/// A bound numeric expression compiled like CompiledPredicate, scoring a
/// batch of candidates into a score array: a candidate's value clamped to
/// [0, 1], or ⊥ where it is not a number — exactly ScoringFunction::Score
/// (prefs/scoring.h) of the row. The program holds literals, column reads
/// (a kInt or kDouble array under its null bitmap, kValue cells; a string
/// column reads as ⊥), Arithmetic and the NumericFunctions, each node one
/// loop over the batch into a register; a node over literals only is
/// folded. Any other node (a comparison, min, max, ...) is a fallback leaf.
class CompiledScore : public ColumnProgram {
 public:
  /// Candidates per Score call, at most.
  static constexpr size_t kBatch = 256;

  /// Compiles `bound` like CompiledPredicate; `bound` must outlive it.
  CompiledScore(const Expr& bound, std::vector<ColumnInput> inputs);

  /// Scores candidates 0..n-1 (n <= kBatch): writes those whose score is
  /// not ⊥, ascending, to `kept` and their scores to `scores` (room for n
  /// each); returns how many. The program evaluates into registers it
  /// owns, so it serves one caller at a time.
  size_t Score(const uint32_t* const* streams, size_t n, uint32_t* kept,
               double* scores);

 private:
  enum class Op : uint8_t {
    kConst,       // `value` for every candidate.
    kColumn,      // inputs[column].
    kArithmetic,  // Arithmetic(arith, args[0], args[1]).
    kCall,        // fn(args).
    kFallback,    // Numeric::Of(expr->Eval(scratch)).
  };
  struct Node {
    Op op = Op::kConst;
    Numeric value;
    uint32_t column = 0;
    ArithmeticOp arith = ArithmeticOp::kAdd;
    NumericFunction fn = nullptr;
    std::vector<uint32_t> args;    // Operand nodes.
    const Expr* expr = nullptr;    // kFallback.
    std::vector<uint32_t> reads;   // kFallback: the columns it reads.
  };

  uint32_t Compile(const Expr& e);
  uint32_t Add(Node node);
  Numeric* Register(uint32_t node) { return registers_.data() + node * kBatch; }
  void Run(uint32_t node, const uint32_t* const* streams, size_t n);

  std::vector<Node> nodes_;  // Operands come before their node; root last.
  std::vector<Numeric> registers_;  // kBatch per node.
};

}  // namespace prefdb

#endif  // PREFDB_EXPR_COMPILED_PREDICATE_H_
