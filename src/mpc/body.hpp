// Capture-free round bodies and the process-wide body table.
//
// A round body is a plain function of its machine context and one
// round-params value `P`: `void(MachineContext&, const P&)` for a raw round,
// `void(StageContext<In>&, const P&)` for a plan stage, without the `P`
// argument when the body takes no params.  A captureless lambda converts;
// a capturing one does not compile, so a body cannot reach host memory.
// Everything it reads beyond its inbox is `P`, which travels as `Codec<P>`
// bytes (mpc/codec.hpp) and is decoded once per round in each process that
// executes the round.  `P` plays the role the captured plan-time values
// used to play and, like them, is not charged to any machine.
//
// Constructing a `Body` registers it in the body table and keeps its id.
// The process backend forks its workers with a copy of the table, so a
// round command names its body by id: a worker resolves the id against the
// table it was forked with, checked against that table's size, and never
// calls an address it read off a frame.  A `Stage` or `Body` declared at
// namespace scope registers during static initialisation, before any fork.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "mpc/codec.hpp"

namespace mpcsd::mpc {

class MachineContext;

/// The params of a body that takes none; encodes to zero bytes.
struct NoParams {
  static constexpr auto fields() { return std::tuple<>(); }
};

/// One row of the body table: a body with its type erased.  `call` casts
/// `fn` back to the body's own type, so only `call` of the same row may
/// receive it.
struct BodyEntry {
  using Fn = void (*)();
  /// A round's decoded params, shared read-only by the machines of the
  /// executing process.
  using Params = std::shared_ptr<const void>;

  Fn fn = nullptr;
  Params (*decode)(ByteSpan params) = nullptr;
  /// Runs `fn` as machine `machine`'s body over the decoded params.
  void (*call)(Fn fn, MachineContext& machine, const void* params) = nullptr;
};

/// A registered body: its row and its id in the body table.
struct BodyRef {
  std::uint32_t id = 0;
  BodyEntry entry;
};

/// The id of `entry` in the body table, added on first registration.
[[nodiscard]] std::uint32_t register_body(const BodyEntry& entry);

/// A copy of the body table: what a worker forked now can run.
[[nodiscard]] std::vector<BodyEntry> body_table_snapshot();

/// Encodes `params` as a round's params bytes.
template <typename P>
[[nodiscard]] Bytes encode_params(const P& params) {
  ByteWriter w;
  w.reserve(sizeof(P));  // most params encode in about their own size
  Codec<P>::encode(w, params);
  return std::move(w).take();
}

namespace detail {
template <typename Ctx, typename P>
struct BodyFn {
  using type = void (*)(Ctx&, const P&);
};
template <typename Ctx>
struct BodyFn<Ctx, NoParams> {
  using type = void (*)(Ctx&);
};
}  // namespace detail

/// A registered capture-free body over context `Ctx` (`MachineContext`, or
/// a `StageContext<In>`, which decodes the machine's input) and params `P`.
template <typename Ctx, typename P = NoParams>
class Body {
 public:
  using Fn = typename detail::BodyFn<Ctx, P>::type;

  /// Implicit on purpose: a function or a captureless lambda is a body.
  template <typename F>
    requires std::is_convertible_v<F, Fn>
  Body(F body)
      : ref_{0, BodyEntry{std::bit_cast<BodyEntry::Fn>(static_cast<Fn>(body)),
                          &decode, &call}} {
    ref_.id = register_body(ref_.entry);
  }

  [[nodiscard]] const BodyRef& ref() const noexcept { return ref_; }

 private:
  static BodyEntry::Params decode(ByteSpan bytes) {
    if constexpr (std::is_same_v<P, NoParams>) {
      return nullptr;
    } else {
      ByteReader r(bytes.data(), bytes.size());
      return std::make_shared<const P>(Codec<P>::decode(r));
    }
  }

  static void call(BodyEntry::Fn fn, MachineContext& machine,
                   const void* params) {
    if constexpr (std::is_same_v<Ctx, MachineContext>) {
      invoke(std::bit_cast<Fn>(fn), machine, params);
    } else {
      Ctx ctx(machine);
      invoke(std::bit_cast<Fn>(fn), ctx, params);
    }
  }

  static void invoke(Fn body, Ctx& ctx, const void* params) {
    if constexpr (std::is_same_v<P, NoParams>) {
      body(ctx);
    } else {
      body(ctx, *static_cast<const P*>(params));
    }
  }

  BodyRef ref_;
};

}  // namespace mpcsd::mpc
