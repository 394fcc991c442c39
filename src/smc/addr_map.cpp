#include "smc/addr_map.hpp"

#include "common/contracts.hpp"

namespace easydram::smc {

namespace {

/// Splits the lowest digit in radix `d` off `x`: returns x % d and leaves
/// x / d in `x`.
std::uint32_t take_digit(std::uint64_t& x, const ConstDivisor& d) {
  const std::uint64_t q = d.divide(x);
  const auto digit = static_cast<std::uint32_t>(x - q * d.divisor());
  x = q;
  return digit;
}

}  // namespace

dram::DramAddress LinearMapper::to_dram(std::uint64_t paddr) const {
  EASYDRAM_EXPECTS(paddr % 64 == 0);
  EASYDRAM_EXPECTS(paddr < geo_.capacity_bytes());
  std::uint64_t x = radix_.col_bytes.divide(paddr);
  dram::DramAddress a;
  a.col = take_digit(x, radix_.cols);
  a.row = take_digit(x, radix_.rows);
  a.bank = take_digit(x, radix_.banks);
  a.rank = take_digit(x, radix_.ranks);
  a.channel = static_cast<std::uint32_t>(x);
  return a;
}

std::uint64_t LinearMapper::to_physical(const dram::DramAddress& a) const {
  EASYDRAM_EXPECTS(geo_.contains(a));
  const std::uint64_t bank_linear =
      (static_cast<std::uint64_t>(a.channel) * geo_.ranks_per_channel + a.rank) *
          geo_.num_banks() +
      a.bank;
  const std::uint64_t row_linear = bank_linear * geo_.rows_per_bank + a.row;
  return (row_linear * geo_.cols_per_row() + a.col) * geo_.col_bytes;
}

dram::DramAddress LineInterleavedMapper::to_dram(std::uint64_t paddr) const {
  EASYDRAM_EXPECTS(paddr % 64 == 0);
  EASYDRAM_EXPECTS(paddr < geo_.capacity_bytes());
  std::uint64_t x = radix_.col_bytes.divide(paddr);
  dram::DramAddress a;
  a.bank = take_digit(x, radix_.banks);
  a.rank = take_digit(x, radix_.ranks);
  a.col = take_digit(x, radix_.cols);
  a.row = take_digit(x, radix_.rows);
  a.channel = static_cast<std::uint32_t>(x);
  return a;
}

std::uint64_t LineInterleavedMapper::to_physical(const dram::DramAddress& a) const {
  EASYDRAM_EXPECTS(geo_.contains(a));
  std::uint64_t upper =
      static_cast<std::uint64_t>(a.channel) * geo_.rows_per_bank + a.row;
  upper = upper * geo_.cols_per_row() + a.col;
  upper = upper * geo_.ranks_per_channel + a.rank;
  return (upper * geo_.num_banks() + a.bank) * geo_.col_bytes;
}

dram::DramAddress ChannelInterleavedMapper::to_dram(std::uint64_t paddr) const {
  EASYDRAM_EXPECTS(paddr % 64 == 0);
  EASYDRAM_EXPECTS(paddr < geo_.capacity_bytes());
  std::uint64_t x = radix_.col_bytes.divide(paddr);
  dram::DramAddress a;
  a.channel = take_digit(x, radix_.channels);
  a.bank = take_digit(x, radix_.banks);
  a.rank = take_digit(x, radix_.ranks);
  a.col = take_digit(x, radix_.cols);
  a.row = static_cast<std::uint32_t>(x);
  return a;
}

std::uint64_t ChannelInterleavedMapper::to_physical(const dram::DramAddress& a) const {
  EASYDRAM_EXPECTS(geo_.contains(a));
  std::uint64_t upper =
      static_cast<std::uint64_t>(a.row) * geo_.cols_per_row() + a.col;
  upper = upper * geo_.ranks_per_channel + a.rank;
  upper = upper * geo_.num_banks() + a.bank;
  return (upper * geo_.channels + a.channel) * geo_.col_bytes;
}

BankPartitionMapper::BankPartitionMapper(const dram::Geometry& geo,
                                         unsigned partitions)
    : geo_(geo), radix_(geo), partitions_(partitions) {
  EASYDRAM_EXPECTS(partitions >= 1);
  EASYDRAM_EXPECTS(geo.num_banks() % partitions == 0);
  banks_per_partition_ = ConstDivisor{geo.num_banks() / partitions};
  partition_bytes_ = ConstDivisor{geo.capacity_bytes() / partitions};
}

dram::DramAddress BankPartitionMapper::to_dram(std::uint64_t paddr) const {
  EASYDRAM_EXPECTS(paddr % 64 == 0);
  EASYDRAM_EXPECTS(paddr < geo_.capacity_bytes());
  const std::uint64_t partition = partition_bytes_.divide(paddr);
  std::uint64_t x =
      radix_.col_bytes.divide(paddr - partition * partition_bytes());
  dram::DramAddress a;
  a.bank = static_cast<std::uint32_t>(
      partition * banks_per_partition_.divisor() +
      take_digit(x, banks_per_partition_));
  a.rank = take_digit(x, radix_.ranks);
  a.col = take_digit(x, radix_.cols);
  a.row = take_digit(x, radix_.rows);
  a.channel = static_cast<std::uint32_t>(x);
  return a;
}

std::uint64_t BankPartitionMapper::to_physical(const dram::DramAddress& a) const {
  EASYDRAM_EXPECTS(geo_.contains(a));
  const std::uint64_t per_partition = banks_per_partition_.divisor();
  const std::uint64_t partition = a.bank / per_partition;
  const std::uint64_t bank_in = a.bank % per_partition;
  std::uint64_t upper =
      static_cast<std::uint64_t>(a.channel) * geo_.rows_per_bank + a.row;
  upper = upper * geo_.cols_per_row() + a.col;
  upper = upper * geo_.ranks_per_channel + a.rank;
  const std::uint64_t line = upper * per_partition + bank_in;
  return partition * partition_bytes() + line * geo_.col_bytes;
}

std::string_view to_string(MappingKind kind) {
  switch (kind) {
    case MappingKind::kLinear: return "linear";
    case MappingKind::kLineInterleaved: return "line";
    case MappingKind::kChannelInterleaved: return "channel";
    case MappingKind::kBankPartition: return "bankpart";
  }
  return "?";
}

std::optional<MappingKind> parse_mapping(std::string_view name) {
  if (name == "linear") return MappingKind::kLinear;
  if (name == "line" || name == "line-interleaved") {
    return MappingKind::kLineInterleaved;
  }
  if (name == "channel" || name == "channel-interleaved") {
    return MappingKind::kChannelInterleaved;
  }
  if (name == "bankpart" || name == "bank-partition") {
    return MappingKind::kBankPartition;
  }
  return std::nullopt;
}

std::unique_ptr<AddressMapper> make_mapper(MappingKind kind,
                                           const dram::Geometry& geo,
                                           unsigned partitions) {
  switch (kind) {
    case MappingKind::kLinear: return std::make_unique<LinearMapper>(geo);
    case MappingKind::kLineInterleaved:
      return std::make_unique<LineInterleavedMapper>(geo);
    case MappingKind::kChannelInterleaved:
      return std::make_unique<ChannelInterleavedMapper>(geo);
    case MappingKind::kBankPartition:
      return std::make_unique<BankPartitionMapper>(geo, partitions);
  }
  EASYDRAM_EXPECTS(!"unknown MappingKind");
  return nullptr;
}

}  // namespace easydram::smc
