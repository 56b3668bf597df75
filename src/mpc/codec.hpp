// Wire codecs: the byte format of every typed value that crosses a
// machine boundary — stage inputs, channel messages, and the round params
// a capture-free body receives (mpc/body.hpp).
//
// Trivially copyable types and vectors of them reuse the exact ByteWriter /
// ChainReader encodings the hand-rolled seed drivers used, so the plan
// layer is byte-identical on the wire (proven by the golden-trace test).
// Aggregate message structs declare a `fields()` tuple of member pointers;
// `std::variant` encodes a uint8 tag (heterogeneous machine families in one
// round, e.g. Algorithm 6's pairing + sampled machines).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/contracts.hpp"

namespace mpcsd::mpc {
template <typename T>
struct Codec;

/// Aggregate message structs opt in by declaring
///   static constexpr auto fields() { return std::make_tuple(&T::a, &T::b); }
/// members are encoded in declaration order with their own codecs.
template <typename T>
concept WireStruct = requires { T::fields(); };

/// Trivially copyable scalars/structs without a fields() override go over
/// the wire as raw bytes — exactly `ByteWriter::put`.
template <typename T>
concept WirePod = std::is_trivially_copyable_v<T> && !WireStruct<T>;

template <WirePod T>
struct Codec<T> {
  static void encode(ByteWriter& w, const T& value) { w.put(value); }
  template <typename Reader>
  static T decode(Reader& r) {
    return r.template get<T>();
  }
};

/// Vectors of trivially copyable elements use the length-prefixed
/// `put_vector` layout (the format every seed driver used for symbol
/// blocks, position maps, and tuple batches).
template <WirePod T>
struct Codec<std::vector<T>> {
  static void encode(ByteWriter& w, const std::vector<T>& v) { w.put_vector(v); }
  template <typename Reader>
  static std::vector<T> decode(Reader& r) {
    return r.template get_vector<T>();
  }
};

/// Vectors of composite messages: uint64 count + element-wise encoding.
template <typename T>
  requires(!WirePod<T>)
struct Codec<std::vector<T>> {
  static void encode(ByteWriter& w, const std::vector<T>& v) {
    w.put<std::uint64_t>(v.size());
    for (const T& e : v) Codec<T>::encode(w, e);
  }
  template <typename Reader>
  static std::vector<T> decode(Reader& r) {
    const auto n = r.template get<std::uint64_t>();
    std::vector<T> out;
    // No reserve: `n` comes off the wire; element decodes throw on overread.
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(Codec<T>::decode(r));
    return out;
  }
};

template <>
struct Codec<std::string> {
  static void encode(ByteWriter& w, const std::string& s) { w.put_string(s); }
  template <typename Reader>
  static std::string decode(Reader& r) {
    return r.get_string();
  }
};

template <WireStruct T>
struct Codec<T> {
  static void encode(ByteWriter& w, const T& value) {
    std::apply(
        [&](auto... member) {
          (Codec<std::decay_t<decltype(value.*member)>>::encode(w, value.*member),
           ...);
        },
        T::fields());
  }
  template <typename Reader>
  static T decode(Reader& r) {
    T value{};
    std::apply(
        [&](auto... member) {
          ((value.*member =
                Codec<std::decay_t<decltype(value.*member)>>::decode(r)),
           ...);
        },
        T::fields());
    return value;
  }
};

/// Tagged union: uint8 alternative index + the alternative's encoding.  The
/// seed drivers' hand-written `tag` bytes (Algorithm 6's pairing=0 /
/// sampled=1 machines) map onto alternative order.
template <typename... Ts>
struct Codec<std::variant<Ts...>> {
  using V = std::variant<Ts...>;

  static void encode(ByteWriter& w, const V& value) {
    w.put<std::uint8_t>(static_cast<std::uint8_t>(value.index()));
    std::visit(
        [&](const auto& alt) {
          Codec<std::decay_t<decltype(alt)>>::encode(w, alt);
        },
        value);
  }
  template <typename Reader>
  static V decode(Reader& r) {
    const auto tag = r.template get<std::uint8_t>();
    MPCSD_EXPECTS(tag < sizeof...(Ts));
    return decode_at<0>(r, tag);
  }

 private:
  template <std::size_t I, typename Reader>
  static V decode_at(Reader& r, std::uint8_t tag) {
    if constexpr (I == sizeof...(Ts)) {
      throw std::logic_error("variant codec: unreachable tag");
    } else {
      if (tag == I) {
        return V{std::in_place_index<I>,
                 Codec<std::variant_alternative_t<I, V>>::decode(r)};
      }
      return decode_at<I + 1>(r, tag);
    }
  }
};

/// A whole mailbox decoded message-by-message: combine-style stages receive
/// one `Inbox<T>` holding every `T` the previous stage sent to the channel.
template <typename T>
struct Inbox {
  std::vector<T> messages;
};

template <typename T>
struct Codec<Inbox<T>> {
  // Inboxes are produced by mail routing, never encoded by a sender.
  static void encode(ByteWriter&, const Inbox<T>&) = delete;
  template <typename Reader>
  static Inbox<T> decode(Reader& r) {
    Inbox<T> in;
    while (!r.exhausted()) in.messages.push_back(Codec<T>::decode(r));
    return in;
  }
};

}  // namespace mpcsd::mpc
