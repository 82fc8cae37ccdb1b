type mode = Full

let mode_name Full = "full"
