#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "tile/cost_model.hpp"
#include "tile/fifo.hpp"
#include "tile/request.hpp"

namespace easydram::tile {

/// Configuration of the EasyTile hardware block.
struct TileConfig {
  std::size_t incoming_fifo_depth = 32;
  std::size_t outgoing_fifo_depth = 32;
  Frequency core_clock = Frequency::megahertz(100);
  CoreCostModel costs{};
};

/// Transaction-level model of EasyTile (§5.1): the incoming/outgoing request
/// FIFOs and the programmable core's cycle meter. The command and readback
/// buffers live with the Bender program/interpreter; the tile control
/// logic's transfer costs are charged through the meter.
class EasyTile {
 public:
  explicit EasyTile(const TileConfig& cfg)
      : config_(cfg),
        incoming_(cfg.incoming_fifo_depth),
        outgoing_(cfg.outgoing_fifo_depth),
        meter_(cfg.costs, cfg.core_clock) {}

  const TileConfig& config() const { return config_; }

  BoundedFifo<Request>& incoming() { return incoming_; }
  BoundedFifo<Response>& outgoing() { return outgoing_; }
  CycleMeter& meter() { return meter_; }
  const CycleMeter& meter() const { return meter_; }

 private:
  TileConfig config_;
  BoundedFifo<Request> incoming_;
  BoundedFifo<Response> outgoing_;
  CycleMeter meter_;
};

}  // namespace easydram::tile
