#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "common/divisor.hpp"
#include "dram/geometry.hpp"
#include "dram/types.hpp"

namespace easydram::smc {

/// Physical-to-DRAM address translation (EasyAPI's mapper family, §7.1).
///
/// Mappers are invertible so that both the processor-side allocation code
/// and the software memory controller can convert between a physical
/// address and a <channel, rank, bank, row, column> coordinate, as the
/// paper requires for solving RowClone's alignment problem. Every mapper
/// covers the full multi-channel capacity of its geometry; with the default
/// 1-channel/1-rank geometry each reduces exactly to its original
/// single-rank bit layout.
class AddressMapper {
 public:
  virtual ~AddressMapper() = default;

  /// Maps the physical address of a 64-byte-aligned cache line.
  virtual dram::DramAddress to_dram(std::uint64_t paddr) const = 0;

  /// Inverse of to_dram (returns the line's base physical address).
  virtual std::uint64_t to_physical(const dram::DramAddress& a) const = 0;

  virtual const dram::Geometry& geometry() const = 0;

  virtual std::string_view name() const = 0;
};

/// A ConstDivisor for each radix of a geometry's address digits, so the
/// mappers split a physical address into coordinates without a division
/// instruction per digit. Exact for any geometry, including non-power-of-two
/// channel, rank or bank counts.
struct GeometryRadices {
  explicit GeometryRadices(const dram::Geometry& geo)
      : col_bytes(geo.col_bytes),
        cols(geo.cols_per_row()),
        rows(geo.rows_per_bank),
        banks(geo.num_banks()),
        ranks(geo.ranks_per_channel),
        channels(geo.channels) {}

  ConstDivisor col_bytes;
  ConstDivisor cols;
  ConstDivisor rows;
  ConstDivisor banks;
  ConstDivisor ranks;
  ConstDivisor channels;
};

/// Row-linear mapping: consecutive physical 8 KiB blocks are consecutive
/// rows of the same bank; banks follow each other, then ranks, then
/// channels (channel bits at the top — consecutive capacity blocks stay on
/// one channel). Keeps DRAM rows (and whole subarrays) physically
/// contiguous, which is the allocator-friendly layout the RowClone case
/// study uses.
class LinearMapper final : public AddressMapper {
 public:
  explicit LinearMapper(const dram::Geometry& geo) : geo_(geo), radix_(geo) {}

  dram::DramAddress to_dram(std::uint64_t paddr) const override;
  std::uint64_t to_physical(const dram::DramAddress& a) const override;
  const dram::Geometry& geometry() const override { return geo_; }
  std::string_view name() const override { return "linear"; }

 private:
  dram::Geometry geo_;
  GeometryRadices radix_;
};

/// Line-interleaved mapping: consecutive cache lines stripe across the
/// banks of one channel (bank bits just above the line offset, rank bits
/// above them), the conventional layout for bank-level parallelism within a
/// channel; channel bits sit at the top. Used by the scheduler-focused
/// experiments.
class LineInterleavedMapper final : public AddressMapper {
 public:
  explicit LineInterleavedMapper(const dram::Geometry& geo)
      : geo_(geo), radix_(geo) {}

  dram::DramAddress to_dram(std::uint64_t paddr) const override;
  std::uint64_t to_physical(const dram::DramAddress& a) const override;
  const dram::Geometry& geometry() const override { return geo_; }
  std::string_view name() const override { return "line"; }

 private:
  dram::Geometry geo_;
  GeometryRadices radix_;
};

/// Channel-interleaved mapping: channel bits directly above the line offset
/// (consecutive cache lines hit consecutive channels), then bank and rank
/// bits — the conventional high-bandwidth layout that spreads any streaming
/// footprint across every channel's bus.
class ChannelInterleavedMapper final : public AddressMapper {
 public:
  explicit ChannelInterleavedMapper(const dram::Geometry& geo)
      : geo_(geo), radix_(geo) {}

  dram::DramAddress to_dram(std::uint64_t paddr) const override;
  std::uint64_t to_physical(const dram::DramAddress& a) const override;
  const dram::Geometry& geometry() const override { return geo_; }
  std::string_view name() const override { return "channel"; }

 private:
  dram::Geometry geo_;
  GeometryRadices radix_;
};

/// Static bank partitioning: the physical space splits into `partitions`
/// equal slices, each owning a disjoint set of banks in every rank and
/// channel. Within a slice consecutive cache lines stripe across the
/// slice's own banks (then ranks, columns, rows, channels — the
/// LineInterleaved order). Place each tenant's footprint in its own slice
/// and no stream can close another's row buffers: bank conflicts between
/// tenants become structurally impossible, the classic software QoS knob
/// that needs no scheduler cooperation.
class BankPartitionMapper final : public AddressMapper {
 public:
  BankPartitionMapper(const dram::Geometry& geo, unsigned partitions);

  dram::DramAddress to_dram(std::uint64_t paddr) const override;
  std::uint64_t to_physical(const dram::DramAddress& a) const override;
  const dram::Geometry& geometry() const override { return geo_; }
  std::string_view name() const override { return "bankpart"; }

  unsigned partitions() const { return partitions_; }
  /// Base physical address of partition `p` — hand each tenant its slice.
  std::uint64_t partition_base(unsigned p) const {
    return static_cast<std::uint64_t>(p) * partition_bytes();
  }
  std::uint64_t partition_bytes() const { return partition_bytes_.divisor(); }

 private:
  dram::Geometry geo_;
  GeometryRadices radix_;
  unsigned partitions_;
  ConstDivisor banks_per_partition_;
  ConstDivisor partition_bytes_;
};

/// The mapper family by name (SystemConfig::mapping, the CLI's --mapping).
enum class MappingKind : std::uint8_t {
  kLinear,
  kLineInterleaved,
  kChannelInterleaved,
  kBankPartition,
};

std::string_view to_string(MappingKind kind);
std::optional<MappingKind> parse_mapping(std::string_view name);
/// `partitions` applies to kBankPartition only (must divide the per-rank
/// bank count); the other mappings ignore it.
std::unique_ptr<AddressMapper> make_mapper(MappingKind kind,
                                           const dram::Geometry& geo,
                                           unsigned partitions = 4);

}  // namespace easydram::smc
