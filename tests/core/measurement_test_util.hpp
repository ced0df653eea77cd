// Shared configuration for the measurement-study tests.
#pragma once

#include "core/measurement_study.hpp"

namespace cdnsim::core {

// A scaled-down study configuration that keeps the tests fast (~seconds).
inline MeasurementConfig small_measurement_config() {
  MeasurementConfig cfg;
  cfg.scenario.server_count = 120;
  cfg.days = 3;
  cfg.game.pre_game_s = 20;
  cfg.game.period_s = 700;
  cfg.game.break_s = 200;
  cfg.game.post_game_s = 40;
  cfg.game.in_play_event_gap_s = 60;  // denser events: more samples per day
  cfg.seed = 5;
  return cfg;
}

}  // namespace cdnsim::core
